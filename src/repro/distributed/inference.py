"""Distributed inference: serving link predictions from workers.

After training, predictions are usually served from the same cluster
that holds the partitioned graph.  :class:`DistributedScorer` assigns
each query pair to the worker owning its source endpoint, builds the
computational graph through that worker's view (local partition plus
the configured remote store, with every remote access charged), and
scores the pair with the trained model.

Scoring can run on any :mod:`execution backend
<repro.distributed.backends>`: worker shards are disjoint, so the
``thread`` backend scores them concurrently in one process and the
``process`` backend forks one child per worker (copy-on-write graph,
results and communication deltas merged in worker order).  Scores and
ledgers are bit-identical across backends: every worker's sampler seed
is pre-drawn from the scorer RNG in worker order before any dispatch.

A shard runs the inference engine of :mod:`repro.eval.evaluator`
through its worker's view.  With full-neighbor fanouts (``[-1] * K``)
it embeds all of the shard's distinct endpoints in one message-flow
graph (:func:`~repro.eval.evaluator.materialize_embeddings`), so each
remote row is fetched and charged once per call whatever the batch
size, then decodes the pairs ``batch_size`` at a time.  With a
complete remote store those embeddings are *exactly* the centralized
ones — the test suite uses this as an end-to-end consistency check of
the whole locality machinery.  Sampled fanouts run
:func:`~repro.eval.evaluator.score_pairs`, the evaluator's own loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..eval.evaluator import materialize_embeddings, score_pairs
from ..rng import ensure_rng
from ..nn.models import LinkPredictionModel
from ..nn.tensor import Tensor, no_grad
from ..partition.partitioned import PartitionedGraph
from .backends import BACKEND_NAMES
from .comm import CommMeter, CommRecord
from .routing import ShardRouter, fan_out, resolve_backend
from .views import WorkerGraphView


@dataclass
class InferenceResult:
    """Scores plus the communication the cluster paid to produce them."""

    scores: np.ndarray
    comm: CommRecord
    pairs_per_worker: List[int]
    rerouted_pairs: int = 0

    def summary(self) -> str:
        """Human-readable report of the scoring pass (routing + comm
        ledger), following the same convention as
        :meth:`TrainResult.summary <repro.distributed.trainer.TrainResult.summary>`."""
        total = self.comm
        routed = ", ".join(str(c) for c in self.pairs_per_worker)
        lines = [
            f"pairs scored:     {int(self.scores.shape[0])}",
            f"pairs per worker: [{routed}]",
            "communication:",
            f"  features:  {total.feature_bytes / 2**20:.3f} MB",
            f"  structure: {total.structure_bytes / 2**20:.3f} MB",
        ]
        if self.rerouted_pairs:
            lines.insert(2, f"pairs rerouted:   {self.rerouted_pairs} "
                            f"(owner shard down)")
        return "\n".join(lines)


class DistributedScorer:
    """Scores node pairs across the simulated cluster.

    Parameters
    ----------
    model:
        The trained (synchronized) link-prediction model; every worker
        holds the same replica.
    partitioned:
        The cluster's graph placement.
    remote:
        Master-side store for non-local data (same choices as
        training: ``None``, full, or sparsified).
    fanouts:
        Per-layer fanouts, one per encoder layer; ``[-1] * K`` for
        exact full-neighbor inference.
    batch_size:
        Pairs per decoder call (and, with sampled fanouts, per sampled
        computation graph).
    backend:
        Execution backend name (``serial`` | ``thread`` | ``process``);
        results are bit-identical across all three.
    """

    def __init__(
        self,
        model: LinkPredictionModel,
        partitioned: PartitionedGraph,
        remote=None,
        fanouts: Sequence[int] = (-1, -1),
        batch_size: int = 1024,
        rng: Optional[np.random.Generator] = None,
        backend: str = "serial",
        timeout_s: float = 30.0,
    ) -> None:
        if len(fanouts) != model.encoder.num_layers:
            raise ValueError(
                f"need one fanout per encoder layer: got {len(fanouts)} "
                f"for {model.encoder.num_layers} layers")
        self.model = model
        self.partitioned = partitioned
        self.fanouts = list(fanouts)
        self.batch_size = batch_size
        self.rng = ensure_rng(rng)
        self.backend = resolve_backend(backend, BACKEND_NAMES, "scoring")
        self.timeout_s = float(timeout_s)
        # Pairs route to master replicas under vertex cut.
        self.router = ShardRouter(partitioned.node_owner,
                                  partitioned.num_parts)
        self.meters = [CommMeter() for _ in range(partitioned.num_parts)]
        self.views = [
            WorkerGraphView(partitioned, part, remote=remote,
                            meter=self.meters[part])
            for part in range(partitioned.num_parts)
        ]

    def mark_down(self, part: int) -> None:
        """Take shard ``part`` out of the routing table; its pairs are
        rerouted (see :meth:`ShardRouter.mark_down`) and pay the remote
        traffic of scoring through a non-owner's view."""
        self.router.mark_down(part)

    def mark_up(self, part: int) -> None:
        """Return a previously downed shard to the routing table."""
        self.router.mark_up(part)

    @property
    def live_shards(self) -> List[int]:
        """Shards currently accepting queries, in worker order."""
        return self.router.live_shards

    def score(self, pairs: np.ndarray) -> InferenceResult:
        """Score pairs; each is routed to its source endpoint's owner
        (or a fallback shard when the owner is marked down)."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.shape[0] == 0:
            # Graceful empty query: nothing routed, nothing charged.
            return InferenceResult(
                scores=np.empty(0, dtype=self.model.vector.dtype),
                comm=self._total_comm(),
                pairs_per_worker=[0] * self.partitioned.num_parts,
                rerouted_pairs=0)
        owners, rerouted = self.router.route_pairs(pairs)
        scores = np.empty(pairs.shape[0], dtype=self.model.vector.dtype)
        counts: List[int] = []
        # Pre-draw every shard's sampler seed in worker order so the
        # scorer RNG advances identically on every backend.
        work: Dict[int, tuple] = {}  # part -> (sel, seed)
        for part in range(self.partitioned.num_parts):
            sel = np.flatnonzero(owners == part)
            counts.append(int(sel.size))
            if sel.size == 0:
                continue
            work[part] = (sel, int(self.rng.integers(0, 2**63 - 1)))

        def run(part: int, worker: Optional[int] = None) -> tuple:
            """Score shard ``part`` through ``worker``'s view (its own by
            default); the reply names the worker and what it charged."""
            worker = part if worker is None else worker
            sel, seed = work[part]
            before = self.meters[worker].current.to_dict()
            shard_scores = self._score_shard(worker, pairs[sel], seed)
            after = self.meters[worker].current.to_dict()
            return (worker, shard_scores,
                    {key: after[key] - before[key] for key in after})

        def fallback(part: int, exc: Exception) -> tuple:
            # Owner shard is gone mid-query: mark it down and re-score
            # its pairs through a surviving shard's view (same sampler
            # seed, remote fetches charged to the fallback worker).
            warnings.warn(
                f"scoring shard {part} failed ({exc}); falling back to "
                f"a live shard", RuntimeWarning, stacklevel=2)
            self.mark_down(part)
            return run(part, worker=self.live_shards[0])

        for part, reply, piped in fan_out(
                self.backend, list(work), run, fallback,
                self.timeout_s, context="score"):
            worker, shard_scores, charged = reply
            scores[work[part][0]] = shard_scores
            if piped:  # the child charged its own copy of the meter
                self.meters[worker].absorb(CommRecord(**charged))
        return InferenceResult(scores=scores, comm=self._total_comm(),
                               pairs_per_worker=counts,
                               rerouted_pairs=rerouted)

    # ------------------------------------------------------------------

    @no_grad()
    def _score_shard(self, part: int, pairs: np.ndarray,
                     seed: int) -> np.ndarray:
        """Score one shard's pairs, in routing order, through worker
        ``part``'s view.

        Touches only worker-``part`` state (view, meter), so shards are
        safe to run concurrently.  Records no tape: the scope is entered
        here, on whichever thread or child runs the shard.
        """
        view = self.views[part]
        if any(f != -1 for f in self.fanouts):
            return score_pairs(self.model, view, pairs, self.fanouts,
                               rng=np.random.default_rng(seed),
                               batch_size=self.batch_size)
        nodes, inverse = np.unique(pairs.ravel(), return_inverse=True)
        emb = Tensor(materialize_embeddings(self.model, view, rows=nodes))
        pair_idx = inverse.reshape(-1, 2)
        out = np.empty(pair_idx.shape[0], dtype=emb.data.dtype)
        for start in range(0, out.size, self.batch_size):
            idx = pair_idx[start:start + self.batch_size]
            out[start:start + idx.shape[0]] = self.model.score_pairs(
                emb, idx[:, 0], idx[:, 1]).data
        return out

    def _total_comm(self) -> CommRecord:
        """Cumulative communication over every ``score`` call so far."""
        comm = CommRecord()
        for meter in self.meters:
            comm += meter.total()
        return comm

