"""LLCG's global correction step (Ramezani et al., ICLR 2022).

LLCG = "Learn Locally, Correct Globally": workers train on their local
partitions like PSGD-PA, but after each model-averaging round the
*master* performs a correction update on the averaged model using
mini-batches sampled from the **entire** graph (full neighborhoods and
global negatives).  The paper notes (footnote 1) that this makes LLCG
not a pure distributed method — the correction requires centralized
training capability on the server — and that with complete data
sharing the correction becomes redundant.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..checkpoint.state import strip_prefix
from ..distributed.sync import broadcast_model
from ..distributed.trainer import TrainConfig
from ..graph.splits import EdgeSplit
from ..nn.loss import bce_with_logits
from ..nn.models import LinkPredictionModel
from ..nn.optim import Adam
from ..sampling.negative import PerSourceUniformNegativeSampler
from ..sampling.neighbor import NeighborSampler


#: Key prefix of the correction optimizer's arrays in a checkpoint.
_OPTIM_PREFIX = "correction.optim."


class GlobalCorrection:
    """Server-side correction applied after each synchronization round.

    Performs ``steps`` mini-batch updates on the synchronized model
    with full-graph sampling, then re-broadcasts the corrected weights
    to every worker.

    The correction has state of its own — the sampling stream and the
    server optimizer's Adam moments — which :meth:`capture` /
    :meth:`restore` carry across a checkpoint.  The optimizer is bound
    to the model it is first called with, so restored moments are held
    until that call builds it.
    """

    def __init__(
        self,
        split: EdgeSplit,
        config: TrainConfig,
        steps: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.graph = split.train_graph
        self.config = config
        self.steps = steps
        self.rng = rng or np.random.default_rng(config.seed + 131)
        self.sampler = NeighborSampler(config.fanouts, rng=self.rng)
        self.negative_sampler = PerSourceUniformNegativeSampler(
            self.graph, rng=self.rng)
        self.positives = self.graph.edge_list()
        self._optimizer: Optional[Adam] = None
        #: Optimizer state a restore delivered (empty: start fresh).
        self._held: Dict[str, np.ndarray] = {}

    def _build_optimizer(self, params) -> Adam:
        """Adam over ``params``, continuing from any held state."""
        optimizer = Adam(params, lr=self.config.lr)
        if self._held:
            optimizer.load_state_dict(self._held)
        return optimizer

    def capture(self) -> tuple:
        """The ``correction`` meta entry (the RNG stream) and the
        optimizer's ``correction.optim.*`` arrays, once it exists."""
        optim = ({} if self._optimizer is None
                 else self._optimizer.state_dict())
        return ({"correction": {"rng": self.rng.bit_generator.state}},
                {_OPTIM_PREFIX + name: value
                 for name, value in optim.items()})

    def restore(self, meta, arrays) -> None:
        """Load :meth:`capture` output back.  A checkpoint written
        before the correction was captured has no entry: nothing to
        load."""
        saved = meta.get("correction")
        if saved is None:
            return
        self.rng.bit_generator.state = saved["rng"]
        self._held = strip_prefix(arrays, _OPTIM_PREFIX)
        if self._optimizer is not None:
            self._optimizer = self._build_optimizer(self._optimizer.params)

    def __call__(self, models: Sequence[LinkPredictionModel]) -> None:
        """Correct the synchronized model (models are identical after
        averaging) and broadcast the result."""
        server_model = models[0]
        if self._optimizer is None:
            self._optimizer = self._build_optimizer(
                server_model.parameters())
        for _ in range(self.steps):
            idx = self.rng.choice(self.positives.shape[0],
                                  size=min(self.config.batch_size,
                                           self.positives.shape[0]),
                                  replace=False)
            batch = self.positives[idx]
            neg = self.negative_sampler.sample(batch[:, 0])
            pairs = np.concatenate([batch, neg], axis=0)
            labels = np.concatenate([np.ones(batch.shape[0]),
                                     np.zeros(neg.shape[0])])
            seeds, inverse = np.unique(pairs.ravel(), return_inverse=True)
            comp_graph = self.sampler.sample(self.graph, seeds)
            feats = self.graph.features[comp_graph.input_nodes]
            pair_idx = inverse.reshape(-1, 2)
            scores = server_model(comp_graph, feats,
                                  pair_idx[:, 0], pair_idx[:, 1])
            loss = bce_with_logits(scores, labels)
            self._optimizer.zero_grad()
            loss.backward()
            self._optimizer.step()
        broadcast_model(server_model, list(models[1:]))
