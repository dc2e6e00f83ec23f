"""Message-flow blocks: the computational graphs of mini-batch GNNs.

A :class:`Block` is the bipartite graph that one GNN layer consumes,
equivalent to DGL's message-flow graph (MFG): messages flow from a set
of *source* rows to a (smaller) set of *destination* rows.  By
convention the destination nodes are the first ``num_dst`` entries of
``src_nodes`` so a layer can combine a node's own previous embedding
with its aggregated neighborhood without extra bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol, Tuple

import numpy as np


@dataclass
class Block:
    """One layer of a sampled computational graph.

    Attributes
    ----------
    src_nodes:
        Global node ids feeding this layer.  ``src_nodes[:num_dst]``
        are the destination nodes themselves.
    num_dst:
        Number of destination (output) rows.
    edge_src / edge_dst:
        Edge endpoints as *local* indices: ``edge_src`` into
        ``src_nodes``, ``edge_dst`` into the destination rows.
    edge_weight:
        Per-edge weights (1.0 on unsparsified graphs; the
        Spielman-Srivastava weights on sparsified ones).
    """

    src_nodes: np.ndarray
    num_dst: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_weight: np.ndarray

    def __post_init__(self) -> None:
        self.src_nodes = np.asarray(self.src_nodes, dtype=np.int64)
        self.edge_src = np.asarray(self.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(self.edge_dst, dtype=np.int64)
        self.edge_weight = np.asarray(self.edge_weight, dtype=np.float64)
        if self.edge_src.shape != self.edge_dst.shape:
            raise ValueError("edge_src and edge_dst must align")
        if self.edge_weight.shape != self.edge_src.shape:
            raise ValueError("edge_weight must align with edges")
        if self.num_dst > self.src_nodes.size:
            raise ValueError("num_dst cannot exceed len(src_nodes)")
        if self.edge_src.size:
            if (self.edge_src.min() < 0
                    or self.edge_src.max() >= self.src_nodes.size):
                raise ValueError("edge_src index out of range")
            if self.edge_dst.min() < 0 or self.edge_dst.max() >= self.num_dst:
                raise ValueError("edge_dst index out of range")

    @property
    def num_src(self) -> int:
        """Source-side node count."""
        return int(self.src_nodes.size)

    @property
    def num_edges(self) -> int:
        """Edges in this block."""
        return int(self.edge_src.size)

    @property
    def dst_nodes(self) -> np.ndarray:
        """Destination node ids (global id space)."""
        return self.src_nodes[:self.num_dst]


@dataclass
class ComputationGraph:
    """A stack of blocks (input layer first) plus the input node set.

    ``blocks[0].src_nodes`` is the full set of nodes whose raw features
    must be materialized to run the forward pass — this is exactly the
    set the communication model charges feature bytes for.
    """

    blocks: List[Block]
    seeds: np.ndarray

    @property
    def input_nodes(self) -> np.ndarray:
        """Input node ids of the deepest block."""
        return self.blocks[0].src_nodes

    @property
    def num_layers(self) -> int:
        """Number of blocks (= sampling depth)."""
        return len(self.blocks)


class NeighborSource(Protocol):
    """Anything the neighbor sampler can draw adjacency from.

    Implementations: a plain :class:`~repro.graph.Graph` (wrapped), a
    worker's composite view over its local partition plus remote
    sparsified partitions, or the master's full-graph store.
    """

    @property
    def num_nodes(self) -> int:  # pragma: no cover - protocol
        """Total nodes addressable through this source."""
        ...

    def neighbors_batch(
        self, nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjacency of many nodes at once.

        Returns ``(nbr_ids, nbr_weights, offsets)`` where node
        ``nodes[i]``'s neighbors are
        ``nbr_ids[offsets[i]:offsets[i+1]]``.
        """
        ...  # pragma: no cover - protocol


def sorted_unique(ids) -> np.ndarray:
    """``np.unique(ids)`` for integer ids: ``ids`` itself (flattened)
    when already strictly increasing, else one sort and a mask.

    Same values and dtype; NumPy's ``np.unique`` takes a hash path
    that is several times slower on already-sorted id arrays."""
    ids = np.ravel(ids)
    if ids.size < 2 or (ids[1:] > ids[:-1]).all():
        return ids
    ids = np.sort(ids)
    keep = np.empty(ids.size, dtype=bool)
    keep[0] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def check_node_ids(ids: np.ndarray, num_nodes: int) -> int:
    """Raise ``ValueError`` unless every id lies in ``[0, num_nodes)``;
    returns one past the largest id (0 for no ids)."""
    if ids.size == 0:
        return 0
    lowest, highest = int(ids.min()), int(ids.max())
    if lowest < 0 or highest >= num_nodes:
        bad = lowest if lowest < 0 else highest
        raise ValueError(f"node id {bad} outside [0, {num_nodes})")
    return highest + 1


def _slice_index(starts: np.ndarray, counts: np.ndarray,
                 offsets: np.ndarray) -> np.ndarray:
    """Flat index of the concatenated slices ``starts[i]:starts[i] +
    counts[i]``; ``offsets`` is the exclusive running sum of ``counts``
    (``len(counts) + 1`` entries), i.e. where slice ``i`` lands in the
    result."""
    return (np.arange(offsets[-1], dtype=np.int64)
            + np.repeat(starts - offsets[:-1], counts))


def merge_neighbor_chunks(
    num_queries: int, chunks,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``neighbors_batch`` answer from per-group partial answers.

    ``chunks`` holds ``(sel, nbrs, weights, offsets)`` tuples: the
    ``neighbors_batch`` answer for the queries at positions ``sel``
    (the groups partition ``range(num_queries)``).  Every neighbor
    list is written to its query's position in the merged answer.
    """
    counts = np.zeros(num_queries, dtype=np.int64)
    for sel, _, _, offsets in chunks:
        counts[sel] = np.diff(offsets)
    out_offsets = np.concatenate([[0], np.cumsum(counts)])
    out_nbrs = np.empty(out_offsets[-1], dtype=np.int64)
    out_w = np.empty(out_offsets[-1], dtype=np.float64)
    for sel, nbrs, weights, offsets in chunks:
        flat = _slice_index(out_offsets[sel], counts[sel], offsets)
        out_nbrs[flat] = nbrs
        out_w[flat] = weights
    return out_nbrs, out_w, out_offsets


class GraphNeighborSource:
    """Adapter exposing a :class:`~repro.graph.Graph` as a
    :class:`NeighborSource`."""

    def __init__(self, graph) -> None:
        self.graph = graph

    @property
    def num_nodes(self) -> int:
        """Nodes in the wrapped graph."""
        return self.graph.num_nodes

    def neighbors_batch(self, nodes: np.ndarray):
        """CSR neighbor lists of ``nodes`` (see the protocol)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        g = self.graph
        check_node_ids(nodes, g.num_nodes)
        starts = g.indptr[nodes]
        stops = g.indptr[nodes + 1]
        counts = stops - starts
        offsets = np.concatenate([[0], np.cumsum(counts)])
        total = int(offsets[-1])
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(0, dtype=np.float64), offsets
        flat = _slice_index(starts, counts, offsets)
        nbrs = g.indices[flat]
        if g.weights is None:
            weights = np.ones(total, dtype=np.float64)
        else:
            weights = g.weights[flat]
        return nbrs, weights, offsets
