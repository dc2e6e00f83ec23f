"""Online re-embedding: per-layer frontier recompute vs. full refresh.

A K-layer GNN embedding of node ``i`` is a pure function of ``i``'s
K-hop neighborhood (structure + features), and its layer-``l`` row a
pure function of the layer-``(l-1)`` rows of ``i`` and its
neighbours.  :class:`Reembedder` keeps every layer's output table and,
on a frontier refresh, recomputes each hidden layer only where that
layer's inputs changed: with ``F_0`` the drifted nodes and ``E`` the
endpoints of inserted or deleted edges since the last refresh, layer
``l`` recomputes ``F_l = F_{l-1} ∪ N(F_{l-1}) ∪ E``, ``N`` taken over
the *union* of the pre- and post-delta adjacency.  Every other row of
that layer's table keeps its bits: its own input row, its neighbours'
input rows and its neighbour list are all unchanged.

The last layer recomputes by **patch unit**: a fixed node range ``[b *
batch_size, (b+1) * batch_size)`` (``StreamConfig.embed_batch``), every
block containing a node of :func:`affected_frontier` (the ``K``-hop
expansion of ``F_0 ∪ E``, a superset of ``F_K``), so the row count a
refresh reports depends only on the frontier.  Each layer's rows come
out of one full-neighbour message-flow block
(:func:`~repro.eval.evaluator.refresh_layers`), and since a row's
output never depends on which rows it is computed with, recomputed
rows are bit-identical to what a full refresh would produce —
incremental and full re-embedding agree to the last bit in every
layer (asserted by the test suite), which is what lets frontier mode
participate in the stream digest.

The resulting table becomes a new versioned
:class:`~repro.serve.artifact.ServableArtifact`; the ``model_version``
covers the (frozen) model weights *and* the table bytes, so every
re-embedding is a distinct, checksummed rollout candidate.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np

from ..checkpoint.state import strip_prefix
from ..eval.evaluator import eval_mode, materialize_layers, refresh_layers
from ..graph.graph import Graph
from ..nn.models import LinkPredictionModel
from ..nn.serialize import model_fingerprint
from ..sampling.blocks import (GraphNeighborSource, check_node_ids,
                               sorted_unique)
from ..serve.artifact import (
    ServableArtifact,
    artifact_from_table,
    predictor_kind_of,
)
from .errors import StreamStateError
from .mutable import GraphDelta


def _layer_frontiers(old_graph: Graph, new_graph: Graph,
                     start: np.ndarray, joined: np.ndarray,
                     hops: int) -> List[np.ndarray]:
    """Boolean node masks ``F_1 .. F_hops`` of the recurrence
    ``F_l = F_{l-1} ∪ N(F_{l-1}) ∪ joined`` from ``F_0 = start``, with
    ``N`` taken over the union of the old and new adjacency.

    Each hop expands only the nodes the previous hop added: the
    neighbours of older ones are already in."""
    seen = start.copy()
    current = np.flatnonzero(seen)
    masks = []
    for _ in range(max(hops, 0)):
        reached = joined.copy()
        for graph in (old_graph, new_graph):
            reached[GraphNeighborSource(graph).neighbors_batch(
                current)[0]] = True
        reached &= ~seen
        current = np.flatnonzero(reached)
        seen |= reached
        masks.append(seen.copy())
    return masks


def affected_frontier(old_graph: Graph, new_graph: Graph,
                      touched: Sequence[int], hops: int) -> np.ndarray:
    """Nodes whose K-hop neighborhood a delta may have changed.

    Expands ``hops`` BFS levels from ``touched`` over the union of the
    old and new adjacency (an edge present on either side conducts
    influence).  Conservative by construction: a superset of the nodes
    whose embeddings actually change.  Returns the sorted node ids.
    """
    n = new_graph.num_nodes
    touched = np.asarray(touched, dtype=np.int64)
    check_node_ids(touched, n)
    start = np.zeros(n, dtype=bool)
    start[touched] = True
    masks = _layer_frontiers(old_graph, new_graph, start,
                             np.zeros(n, dtype=bool), hops)
    return np.flatnonzero(masks[-1] if masks else start)


class Reembedder:
    """Maintains the node-embedding table of an evolving graph.

    Owns a frozen trained ``model``, the current ``(num_nodes,
    embed_dim)`` table and, below it, the post-activation output table
    of every hidden layer (``hidden``, input layer first).
    :meth:`full_refresh` recomputes everything; :meth:`frontier_refresh`
    recomputes, layer by layer, only the rows whose inputs changed
    since the last refresh.  Both leave every table in the exact state
    a from-scratch materialization against the same graph would — the
    equivalence the streaming digest depends on.

    Changes reach a frontier refresh through :meth:`record`, one delta
    per tick: the drifted nodes and the endpoints of inserted or
    deleted edges wait, accumulated, until the next refresh, however
    many ticks apart refreshes are.
    """

    def __init__(self, model: LinkPredictionModel,
                 batch_size: int = 64) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.batch_size = int(batch_size)
        self.table: Optional[np.ndarray] = None
        #: Post-activation output tables of layers ``0 .. K-2``.
        self.hidden: List[np.ndarray] = []
        self.rows_recomputed = 0
        #: Rows each layer recomputed in the last refresh, input layer
        #: first (the last entry is that refresh's return value).
        self.layer_rows: List[int] = []
        self._embedded_graph: Optional[Graph] = None
        #: Since the last refresh: nodes whose features drifted, and
        #: endpoints of inserted or deleted edges.
        self._drifted = np.zeros(0, dtype=bool)
        self._endpoints = np.zeros(0, dtype=bool)
        #: The frozen weights' hash, :meth:`version`'s prefix (lazy).
        self._weights: Optional[str] = None

    @property
    def num_layers(self) -> int:
        """GNN depth — the frontier's hop radius."""
        return self.model.encoder.num_layers

    # -- refresh ---------------------------------------------------------

    def record(self, delta: GraphDelta) -> None:
        """Queue one tick's delta for the next :meth:`frontier_refresh`.

        A no-op before the first refresh, which is a full pass.
        """
        if self.table is None:
            return
        self._drifted[delta.drifted] = True
        self._endpoints[delta.inserted.ravel()] = True
        self._endpoints[delta.deleted.ravel()] = True

    def full_refresh(self, graph: Graph) -> int:
        """Recompute every row of every layer against ``graph``;
        returns rows done."""
        with eval_mode(self.model):
            *self.hidden, self.table = materialize_layers(self.model,
                                                          graph)
        self._embedded(graph)
        self.layer_rows = [graph.num_nodes] * self.num_layers
        self.rows_recomputed += graph.num_nodes
        return graph.num_nodes

    def frontier_refresh(self, graph: Graph,
                         touched: Sequence[int] = ()) -> int:
        """Patch what the changes since the last refresh can reach;
        returns the number of final-table rows recomputed (0 when
        nothing changed).

        The changes are those :meth:`record` queued plus ``touched``
        (nodes taken as both drifted and edge endpoints).  Hidden layer
        ``l`` recomputes exactly the rows of ``F_l = F_{l-1} ∪
        N(F_{l-1}) ∪ E`` (``F_0`` the drifted nodes, ``E`` the edge
        endpoints, ``N`` over old ∪ new adjacency); the last layer
        recomputes the ``batch_size``-node patch blocks containing
        :func:`affected_frontier`, reading its inputs from the last
        hidden table.  Falls back to :meth:`full_refresh` on the first
        call (there is no table to patch yet).
        """
        if self.table is None or self._embedded_graph is None:
            return self.full_refresh(graph)
        touched = np.asarray(touched, dtype=np.int64)
        check_node_ids(touched, graph.num_nodes)
        drifted, endpoints = self._drifted, self._endpoints
        drifted[touched] = True
        endpoints[touched] = True
        old = self._embedded_graph
        frontier = affected_frontier(old, graph,
                                     np.flatnonzero(drifted | endpoints),
                                     self.num_layers)
        rows = [np.flatnonzero(mask) for mask in _layer_frontiers(
            old, graph, drifted, endpoints, self.num_layers - 1)]
        self._embedded(graph)
        if frontier.size == 0:
            self.layer_rows = [0] * self.num_layers
            return 0
        blocks = sorted_unique(frontier // self.batch_size)
        patch = (blocks[:, None] * self.batch_size
                 + np.arange(self.batch_size)).ravel()
        rows.append(patch[patch < graph.num_nodes])
        with eval_mode(self.model):
            refresh_layers(self.model, graph, self.hidden + [self.table],
                           rows)
        self.layer_rows = [int(ids.size) for ids in rows]
        self.rows_recomputed += self.layer_rows[-1]
        return self.layer_rows[-1]

    def _embedded(self, graph: Graph) -> None:
        """Every table is now current against ``graph``: nothing is
        queued."""
        self._embedded_graph = graph
        self._drifted = np.zeros(graph.num_nodes, dtype=bool)
        self._endpoints = np.zeros(graph.num_nodes, dtype=bool)

    # -- checkpointing ---------------------------------------------------

    def capture(self) -> tuple:
        """``(meta entries, named arrays)`` of a stream checkpoint: the
        row counter and the hidden-table count; the model weights,
        every table, the queued changes and the edges of the graph the
        tables were computed against (the next frontier's old side)."""
        arrays = {f"stream.model.{key}": np.asarray(value)
                  for key, value in self.model.state_dict().items()}
        arrays["stream.embed.table"] = self.table.copy()
        for layer, table in enumerate(self.hidden):
            arrays[f"stream.embed.hidden.{layer:04d}"] = table.copy()
        arrays["stream.embed.drifted"] = np.flatnonzero(self._drifted)
        arrays["stream.embed.endpoints"] = np.flatnonzero(self._endpoints)
        arrays["stream.embed.graph_edges"] = (
            self._embedded_graph.edge_list())
        return {"reembed_rows_total": self.rows_recomputed,
                "reembed_hidden_tables": len(self.hidden)}, arrays

    def restore(self, meta, arrays, graph: Graph) -> None:
        """Load :meth:`capture` output back into a reembedder of the
        same architecture (refreshed or not).  The embedded graph comes
        back as adjacency only: all the next frontier walk reads.

        A checkpoint without hidden tables (schema v1) rebuilds them
        by one full pass over ``graph``, the stream's current state,
        with nothing queued: exact whenever the checkpointed tick
        refreshed, as every tick does at ``refresh_every=1``.
        """
        self.model.load_state_dict(strip_prefix(arrays, "stream.model."))
        self._weights = None
        self.table = np.asarray(arrays["stream.embed.table"],
                                dtype=np.float64).copy()
        self._embedded(Graph.from_edges(
            self.table.shape[0], arrays["stream.embed.graph_edges"]))
        if "reembed_hidden_tables" in meta:
            self.hidden = [
                np.asarray(arrays[f"stream.embed.hidden.{layer:04d}"],
                           dtype=np.float64).copy()
                for layer in range(int(meta["reembed_hidden_tables"]))]
            self._drifted[arrays["stream.embed.drifted"]] = True
            self._endpoints[arrays["stream.embed.endpoints"]] = True
        else:
            with eval_mode(self.model):
                self.hidden = materialize_layers(self.model, graph)[:-1]
        self.rows_recomputed = int(meta["reembed_rows_total"])

    # -- artifact export -------------------------------------------------

    def version(self, graph: Graph) -> str:
        """The candidate ``model_version``: weights ⊕ table ⊕ graph.

        Unlike the static export path (weights only), a streaming
        version must distinguish re-embeddings of the *same* weights
        against different graph states — hence the table and structure
        bytes in the hash (read through the buffer protocol).
        """
        if self.table is None:
            raise StreamStateError(
                "no table yet: call full_refresh()/frontier_refresh() "
                "before version()")
        if self._weights is None:
            self._weights = model_fingerprint(self.model)
        digest = hashlib.sha256(self._weights.encode("ascii"))
        for array in (self.table, graph.indptr, graph.indices):
            digest.update(np.ascontiguousarray(array))
        return digest.hexdigest()

    def make_artifact(self, graph: Graph,
                      assignment: np.ndarray,
                      num_parts: int) -> ServableArtifact:
        """A versioned servable around a float32 copy of the current
        table (the artifact's one table, read-only; refreshes keep
        patching the float64 :attr:`table` in place)."""
        if self.table is None:
            raise StreamStateError(
                "no table yet: call full_refresh()/frontier_refresh() "
                "before make_artifact()")
        return artifact_from_table(
            self.table.astype(np.float32), self.version(graph),
            predictor_kind_of(self.model),
            self.model.predictor.state_dict(),
            assignment, num_parts)
