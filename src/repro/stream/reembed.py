"""Online re-embedding: frontier recompute vs. scheduled full refresh.

A K-layer GNN embedding of node ``i`` is a pure function of ``i``'s
K-hop neighborhood (structure + features).  When a tick's delta
touches a set of nodes, only nodes within K hops of the touched set —
computed over the *union* of the pre- and post-delta adjacency, so
both sides of an inserted or deleted edge count — can change their
embedding.  :func:`affected_frontier` computes that set;
:class:`Reembedder` recomputes exactly the patch blocks containing it
and patches the table in place of its own copy.

The **patch unit** is a fixed node range ``[b * batch_size, (b+1) *
batch_size)`` (``StreamConfig.embed_batch``): a refresh recomputes
every row of each block the frontier touches, so the row count it
reports depends only on the frontier.  It is not a compute batch —
all patched rows come out of one full-neighbor message-flow graph
(:func:`~repro.eval.evaluator.materialize_embeddings`), and since a
row's embedding never depends on which rows it is computed with,
recomputed rows are bit-identical to what a full refresh would
produce — incremental and full re-embedding agree to the last bit
(asserted by the test suite), which is what lets frontier mode
participate in the stream digest.

The resulting table becomes a new versioned
:class:`~repro.serve.artifact.ServableArtifact`; the ``model_version``
covers the (frozen) model weights *and* the table bytes, so every
re-embedding is a distinct, checksummed rollout candidate.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from ..checkpoint.state import strip_prefix
from ..eval.evaluator import eval_mode, materialize_embeddings
from ..graph.graph import Graph
from ..nn.models import LinkPredictionModel
from ..nn.serialize import model_fingerprint
from ..sampling.blocks import GraphNeighborSource, check_node_ids
from ..serve.artifact import (
    ServableArtifact,
    artifact_from_table,
    predictor_kind_of,
)
from .errors import StreamStateError


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
    seen = np.zeros(n, dtype=bool)
    seen[touched] = True
    current = np.flatnonzero(seen)
    for _ in range(max(hops, 0)):
        reached = np.zeros(n, dtype=bool)
        for graph in (old_graph, new_graph):
            reached[GraphNeighborSource(graph).neighbors_batch(
                current)[0]] = True
        reached &= ~seen
        current = np.flatnonzero(reached)
        if current.size == 0:
            break
        seen |= reached
    return np.flatnonzero(seen)


class Reembedder:
    """Maintains the node-embedding table of an evolving graph.

    Owns a frozen trained ``model`` and the current ``(num_nodes,
    embed_dim)`` table.  :meth:`full_refresh` recomputes everything;
    :meth:`frontier_refresh` recomputes only the ``batch_size``-node
    patch blocks containing the affected frontier, in one pass.  Both
    leave the table in the exact state a from-scratch materialization
    against the same graph would — the equivalence the streaming
    digest depends on.
    """

    def __init__(self, model: LinkPredictionModel,
                 batch_size: int = 64) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.batch_size = int(batch_size)
        self.table: Optional[np.ndarray] = None
        self.rows_recomputed = 0
        self._embedded_graph: Optional[Graph] = None

    @property
    def num_layers(self) -> int:
        """GNN depth — the frontier's hop radius."""
        return self.model.encoder.num_layers

    # -- refresh ---------------------------------------------------------

    def full_refresh(self, graph: Graph) -> int:
        """Recompute every row against ``graph``; returns rows done."""
        with eval_mode(self.model):
            self.table = materialize_embeddings(self.model, graph)
        self._embedded_graph = graph
        self.rows_recomputed += graph.num_nodes
        return graph.num_nodes

    def frontier_refresh(self, graph: Graph,
                         touched: Sequence[int]) -> int:
        """Patch only the blocks the touched set can reach; returns
        the number of rows recomputed (0 when nothing was touched).

        Falls back to :meth:`full_refresh` on the first call (there is
        no table to patch yet).
        """
        if self.table is None or self._embedded_graph is None:
            return self.full_refresh(graph)
        frontier = affected_frontier(self._embedded_graph, graph,
                                     touched, self.num_layers)
        self._embedded_graph = graph
        if frontier.size == 0:
            return 0
        blocks = np.unique(frontier // self.batch_size)
        rows = (blocks[:, None] * self.batch_size
                + np.arange(self.batch_size)).ravel()
        rows = rows[rows < graph.num_nodes]
        with eval_mode(self.model):
            self.table[rows] = materialize_embeddings(self.model, graph,
                                                      rows=rows)
        self.rows_recomputed += rows.size
        return int(rows.size)

    # -- checkpointing ---------------------------------------------------

    def capture(self) -> tuple:
        """``(meta entries, named arrays)`` of a stream checkpoint: the
        row counter; the model weights, the table and the edges of the
        graph it was computed against (the next frontier's old side)."""
        arrays = {f"stream.model.{key}": np.asarray(value)
                  for key, value in self.model.state_dict().items()}
        arrays["stream.embed.table"] = self.table.copy()
        arrays["stream.embed.graph_edges"] = (
            self._embedded_graph.edge_list())
        return {"reembed_rows_total": self.rows_recomputed}, arrays

    def restore(self, meta, arrays) -> None:
        """Load :meth:`capture` output back into a reembedder of the
        same architecture (refreshed or not).  The embedded graph comes
        back as adjacency only: all the next frontier walk reads."""
        self.model.load_state_dict(strip_prefix(arrays, "stream.model."))
        self.table = np.asarray(arrays["stream.embed.table"],
                                dtype=np.float64).copy()
        self._embedded_graph = Graph.from_edges(
            self.table.shape[0], arrays["stream.embed.graph_edges"])
        self.rows_recomputed = int(meta["reembed_rows_total"])

    # -- artifact export -------------------------------------------------

    def version(self, graph: Graph) -> str:
        """The candidate ``model_version``: weights ⊕ table ⊕ graph.

        Unlike the static export path (weights only), a streaming
        version must distinguish re-embeddings of the *same* weights
        against different graph states — hence the table and structure
        bytes in the hash.
        """
        if self.table is None:
            raise StreamStateError(
                "no table yet: call full_refresh()/frontier_refresh() "
                "before version()")
        digest = hashlib.sha256()
        digest.update(model_fingerprint(self.model).encode("ascii"))
        digest.update(np.ascontiguousarray(self.table).tobytes())
        digest.update(graph.indptr.tobytes())
        digest.update(graph.indices.tobytes())
        return digest.hexdigest()

    def make_artifact(self, graph: Graph,
                      assignment: np.ndarray,
                      num_parts: int) -> ServableArtifact:
        """Shard the current table into a versioned servable."""
        if self.table is None:
            raise StreamStateError(
                "no table yet: call full_refresh()/frontier_refresh() "
                "before make_artifact()")
        return artifact_from_table(
            self.table.copy(), self.version(graph),
            predictor_kind_of(self.model),
            self.model.predictor.state_dict(),
            assignment, num_parts)
