"""Model evaluation for link prediction, and the inference engine.

Evaluation is always *centralized* (on the full training graph): the
paper's experimental question is how the distributed *training* regime
affects the quality of the final model, so validation/test scoring
reads the whole training graph regardless of how the model was
trained.  It is not exact: :class:`Evaluator` scores through
:func:`score_pairs` with the *training* fanouts and its own generator
(the trainers seed it with ``seed + 7919``), so each validation or test
metric depends on that generator's stream — which is why its state
rides in every checkpoint.  ROADMAP.md's "Exact evaluation through the
one engine" item replaces this with one full-neighbour
:func:`materialize_embeddings` pass.

The two engine functions every inference path runs live here, below
both :mod:`repro.serve` and :mod:`repro.distributed`:
:func:`score_pairs` (sampled or full-neighbour scoring, one computation
graph per batch of pairs) and :func:`materialize_embeddings` (exact
full-neighbour embeddings of any row set in one message-flow graph).
Both read from any neighbour source — a raw
:class:`~repro.graph.Graph`, or a
:class:`~repro.distributed.views.WorkerGraphView` whose feature fetches
charge its meter.

The streaming re-embedder's per-layer tables come from the same
engine: :func:`materialize_layers` keeps every layer's table of one
full pass, and :func:`refresh_layers` — the layer step — recomputes
chosen rows of each layer from the table below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..rng import ensure_rng
from ..graph.graph import Graph
from ..graph.splits import EdgeSplit
from ..nn.models import LinkPredictionModel
from ..nn.tensor import Tensor, no_grad
from ..sampling.blocks import sorted_unique
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


def _input_features(source, nodes: np.ndarray) -> np.ndarray:
    """Feature rows of ``nodes``: read from a raw graph, fetched (and
    charged) through a worker view."""
    if isinstance(source, Graph):
        return source.features[nodes]
    return source.fetch_features(nodes)


@no_grad()
def score_pairs(
    model: LinkPredictionModel,
    graph,
    pairs: np.ndarray,
    fanouts: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    batch_size: int = 2048,
) -> np.ndarray:
    """Score node pairs, sampling each batch's computation graph from
    ``graph`` (a ``Graph`` or a worker view).

    Records no tape, so no batch's activations outlive its scores.
    """
    rng = ensure_rng(rng)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    sampler = NeighborSampler(fanouts, rng=rng)
    scores = np.empty(pairs.shape[0], dtype=model.vector.dtype)
    for start in range(0, pairs.shape[0], batch_size):
        batch = pairs[start:start + batch_size]
        seeds, inverse = np.unique(batch.ravel(), return_inverse=True)
        comp_graph = sampler.sample(graph, seeds)
        feats = _input_features(graph, comp_graph.input_nodes)
        pair_idx = inverse.reshape(-1, 2)
        out = model(comp_graph, feats, pair_idx[:, 0], pair_idx[:, 1])
        scores[start:start + batch.shape[0]] = out.data
    return scores


def _full_neighbor_mfg(graph, nodes: np.ndarray, depth: int):
    """``(seeds, comp_graph)``: the ``depth``-block full-neighbour
    message-flow graph of the sorted ``nodes``.

    A one-row ``(1, k) @ (k, m)`` product goes down BLAS GEMV, whose
    bits differ from GEMM's, so a lone row is computed beside a
    companion: ``seeds`` is then ``nodes`` plus that companion, and
    :func:`_rows_of` picks the requested rows back out."""
    seeds = nodes
    if nodes.size == 1 and graph.num_nodes > 1:
        seeds = np.unique([int(nodes[0]), 1 if nodes[0] == 0 else 0])
    # Full-neighbor sampling draws no randomness; the rng argument only
    # satisfies the seeded-RNG invariant (R001).
    sampler = NeighborSampler([-1] * depth, rng=np.random.default_rng(0))
    return seeds, sampler.sample(graph, seeds)


def _rows_of(out: np.ndarray, seeds: np.ndarray,
             nodes: np.ndarray) -> np.ndarray:
    """The ``nodes`` rows of ``out``, computed over ``seeds``."""
    return out if seeds is nodes else out[np.searchsorted(seeds, nodes)]


def _checked_nodes(graph, rows) -> np.ndarray:
    """``rows`` as sorted unique ids in ``[0, num_nodes)`` (every node
    for ``None``)."""
    if rows is None:
        return np.arange(graph.num_nodes, dtype=np.int64)
    nodes = sorted_unique(np.asarray(rows, dtype=np.int64))
    if nodes.size and not 0 <= nodes[0] <= nodes[-1] < graph.num_nodes:
        raise ValueError(f"rows must lie in [0, {graph.num_nodes})")
    return nodes


@no_grad()
def materialize_embeddings(model: LinkPredictionModel, graph,
                           rows=None) -> np.ndarray:
    """Exact full-neighbor embeddings of ``rows`` (every node by default)
    from ``graph`` (a ``Graph`` or a worker view).

    One ``[-1] * K`` message-flow graph over all requested rows and one
    ``model.embed``, so every node's layer-``l`` row is computed once.
    A row's embedding depends only on its K-hop neighborhood, never on
    which other rows are computed with it, so any subset reproduces
    exactly the rows a full pass would — the property the streaming
    re-embedder relies on to patch tables bit-identically.  Returns the
    ``(len(unique rows), embed_dim)`` rows in ascending node order.
    Records no tape.
    """
    nodes = _checked_nodes(graph, rows)
    if nodes.size == 0:
        return np.zeros((0, 0), dtype=model.vector.dtype)
    seeds, comp_graph = _full_neighbor_mfg(graph, nodes,
                                           model.encoder.num_layers)
    out = model.embed(comp_graph,
                      _input_features(graph, comp_graph.input_nodes)).data
    return _rows_of(out, seeds, nodes)


@no_grad()
def materialize_layers(model: LinkPredictionModel,
                       graph: Graph) -> List[np.ndarray]:
    """Every layer's full-neighbour output table over every node, input
    layer first: the ``K - 1`` post-activation hidden tables, then the
    embedding table :func:`materialize_embeddings` returns (the same
    bits: it is the same message-flow graph and forward).  Records no
    tape."""
    nodes = np.arange(graph.num_nodes, dtype=np.int64)
    _, comp_graph = _full_neighbor_mfg(graph, nodes,
                                       model.encoder.num_layers)
    return [h.data for h in model.encoder.layer_outputs(
        comp_graph, _input_features(graph, comp_graph.input_nodes))]


@no_grad()
def refresh_layers(model: LinkPredictionModel, graph: Graph,
                   tables: Sequence[np.ndarray],
                   rows: Sequence[np.ndarray]) -> None:
    """Recompute ``rows[l]`` of every layer's table ``tables[l]`` in
    place, input layer first (the tables :func:`materialize_layers`
    returns).

    The layer step: layer ``l``'s rows come out of one one-block
    full-neighbour message-flow graph whose source rows are read from
    ``tables[l - 1]`` (raw features under layer 0), so each table must
    already be current wherever a recomputed row reads it.  A row's
    output depends only on its own and its neighbours' input rows, so
    it comes out with the bits a full pass gives it.  Records no tape.
    """
    encoder = model.encoder
    for layer, (table, ids) in enumerate(zip(tables, rows)):
        nodes = _checked_nodes(graph, ids)
        if nodes.size == 0:
            continue
        seeds, comp_graph = _full_neighbor_mfg(graph, nodes, 1)
        (block,) = comp_graph.blocks
        h_src = (_input_features(graph, block.src_nodes) if layer == 0
                 else tables[layer - 1][block.src_nodes])
        out = encoder.layer(layer, block, Tensor(h_src)).data
        table[nodes] = _rows_of(out, seeds, nodes)


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
