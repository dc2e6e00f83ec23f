"""Model evaluation for link prediction.

Evaluation is always *centralized* (on the full training graph): the
paper's experimental question is how the distributed *training* regime
affects the quality of the final model, so validation/test scoring uses
complete neighborhoods regardless of how the model was trained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..rng import ensure_rng
from ..graph.graph import Graph
from ..graph.splits import EdgeSplit
from ..nn.models import LinkPredictionModel
from ..nn.tensor import no_grad
from ..sampling.neighbor import NeighborSampler
from .metrics import auc, hits_at_k


@dataclass
class EvalResult:
    """Metrics for one split."""

    hits: float
    auc: float
    k: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hits@{self.k}={self.hits:.4f}, AUC={self.auc:.4f}"


@no_grad()
def score_pairs(
    model: LinkPredictionModel,
    graph: Graph,
    pairs: np.ndarray,
    fanouts: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    batch_size: int = 2048,
) -> np.ndarray:
    """Score node pairs using full-graph neighborhood sampling.

    Records no tape, so no batch's activations outlive its scores.
    """
    rng = ensure_rng(rng)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    sampler = NeighborSampler(fanouts, rng=rng)
    model.eval()
    scores = np.empty(pairs.shape[0], dtype=np.float64)
    for start in range(0, pairs.shape[0], batch_size):
        batch = pairs[start:start + batch_size]
        seeds, inverse = np.unique(batch.ravel(), return_inverse=True)
        comp_graph = sampler.sample(graph, seeds)
        feats = graph.features[comp_graph.input_nodes]
        pair_idx = inverse.reshape(-1, 2)
        out = model(comp_graph, feats, pair_idx[:, 0], pair_idx[:, 1])
        scores[start:start + batch.shape[0]] = out.data
    model.train()
    return scores


class Evaluator:
    """Scores a model on the validation/test sets of an edge split.

    The paper's protocol: train for E epochs, keep the weights with
    the best *validation* Hits@100, report *test* Hits@100 of those
    weights.  Trainers call :meth:`validate` each epoch and
    :meth:`test` once at the end on their best snapshot.
    """

    def __init__(
        self,
        split: EdgeSplit,
        fanouts: Sequence[int],
        k: int = 100,
        rng: Optional[np.random.Generator] = None,
        batch_size: int = 2048,
    ) -> None:
        self.split = split
        self.fanouts = list(fanouts)
        self.k = k
        self.rng = ensure_rng(rng)
        self.batch_size = batch_size

    def _evaluate(self, model: LinkPredictionModel, pos: np.ndarray,
                  neg: np.ndarray) -> EvalResult:
        graph = self.split.train_graph
        pos_scores = score_pairs(model, graph, pos, self.fanouts,
                                 rng=self.rng, batch_size=self.batch_size)
        neg_scores = score_pairs(model, graph, neg, self.fanouts,
                                 rng=self.rng, batch_size=self.batch_size)
        return EvalResult(
            hits=hits_at_k(pos_scores, neg_scores, self.k),
            auc=auc(pos_scores, neg_scores),
            k=self.k,
        )

    def capture(self) -> tuple:
        """The ``evaluator_rng`` meta entry of a session checkpoint:
        the sampling stream both splits are scored with."""
        return {"evaluator_rng": self.rng.bit_generator.state}, {}

    def restore(self, meta, arrays) -> None:
        """Load :meth:`capture` output back."""
        self.rng.bit_generator.state = meta["evaluator_rng"]

    def validate(self, model: LinkPredictionModel) -> EvalResult:
        """Hits@K and AUC on the validation split."""
        return self._evaluate(model, self.split.val_pos, self.split.val_neg)

    def test(self, model: LinkPredictionModel) -> EvalResult:
        """Hits@K and AUC on the held-out test split."""
        return self._evaluate(model, self.split.test_pos, self.split.test_neg)
