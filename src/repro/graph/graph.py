"""Core graph data structure.

The :class:`Graph` is the storage substrate every other subsystem builds
on.  It mirrors what the paper gets from DGL's graph storage: an
undirected graph held in CSR form together with a dense node-feature
matrix.  Each undirected edge ``{u, v}`` is stored twice (``u -> v`` and
``v -> u``) so that neighbor lookups are a single ``indptr`` slice.

Graphs are immutable once constructed; all transformations (subgraphs,
sparsified copies, ...) return new :class:`Graph` instances.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp


class GraphError(ValueError):
    """Raised when a graph is constructed from inconsistent inputs."""


class Graph:
    """An undirected graph in CSR form with optional edge weights and
    node features.

    Parameters
    ----------
    indptr, indices:
        Standard CSR row pointers and column indices covering *both*
        directions of every undirected edge.
    weights:
        Per-directed-edge weights aligned with ``indices``.  ``None``
        means the graph is unweighted (all weights treated as 1.0).
    features:
        ``(num_nodes, feature_dim)`` float32 matrix, or ``None``.

    Use :meth:`from_edges` to build a graph from an undirected edge
    list; the raw constructor trusts its inputs (it only validates
    shapes) and is intended for internal fast paths.
    """

    __slots__ = ("indptr", "indices", "weights", "features", "num_nodes",
                 "_edge_rows")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
        features: Optional[np.ndarray] = None,
        edge_rows: Optional[np.ndarray] = None,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size == 0:
            raise GraphError("indptr must be a non-empty 1-D array")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        self.indptr = indptr
        self.indices = indices
        self.num_nodes = int(indptr.size - 1)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_nodes):
            raise GraphError("edge endpoint out of range")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise GraphError("weights must align with indices")
        self.weights = weights
        if features is not None:
            features = np.ascontiguousarray(features, dtype=np.float32)
            if features.ndim != 2 or features.shape[0] != self.num_nodes:
                raise GraphError(
                    "features must be (num_nodes, feature_dim), got "
                    f"{features.shape} for {self.num_nodes} nodes"
                )
        self.features = features
        # :meth:`edge_list`, when the caller already decoded it.
        self._edge_rows = edge_rows

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Sequence[int]] | np.ndarray,
        features: Optional[np.ndarray] = None,
        edge_weights: Optional[np.ndarray] = None,
        dedup: bool = True,
    ) -> "Graph":
        """Build an undirected graph from an ``(m, 2)`` edge array.

        Self-loops are dropped.  When ``dedup`` is true (the default),
        duplicate undirected edges are merged; weights of merged
        duplicates are summed, matching the Spielman-Srivastava
        convention used by the sparsifier.
        """
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphError(f"edges must be (m, 2), got {edges.shape}")
        if num_nodes <= 0:
            raise GraphError("num_nodes must be positive")
        if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
            raise GraphError("edge endpoint out of range")

        keep = edges[:, 0] != edges[:, 1]
        edges = edges[keep]
        if edge_weights is not None:
            edge_weights = np.asarray(edge_weights, dtype=np.float64)[keep]

        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        if dedup and edges.shape[0]:
            key = lo * num_nodes + hi
            uniq, inv = np.unique(key, return_inverse=True)
            if edge_weights is None:
                merged_w = None
            else:
                merged_w = np.zeros(uniq.size, dtype=np.float64)
                np.add.at(merged_w, inv, edge_weights)
            lo = (uniq // num_nodes).astype(np.int64)
            hi = (uniq % num_nodes).astype(np.int64)
            edge_weights = merged_w

        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        if edge_weights is not None:
            w_directed = np.concatenate([edge_weights, edge_weights])
        else:
            w_directed = None

        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        if w_directed is not None:
            w_directed = w_directed[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, dst, weights=w_directed, features=features)

    @classmethod
    def empty(cls, num_nodes: int, features: Optional[np.ndarray] = None) -> "Graph":
        """Graph with ``num_nodes`` isolated nodes and no edges."""
        return cls(np.zeros(num_nodes + 1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64), features=features)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def num_directed_edges(self) -> int:
        """Number of stored directed edges (= 2 x undirected edges)."""
        return int(self.indices.size)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.num_directed_edges // 2

    @property
    def feature_dim(self) -> int:
        """Feature dimensionality (0 when the graph has no features)."""
        return 0 if self.features is None else int(self.features.shape[1])

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degree (number of undirected incident edges)."""
        return np.diff(self.indptr)

    def degree(self, node: int) -> int:
        """Degree of a single node."""
        return int(self.indptr[node + 1] - self.indptr[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Read-only view of ``node``'s neighbor ids."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def neighbor_weights(self, node: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors` (ones if unweighted)."""
        if self.weights is None:
            return np.ones(self.degree(node), dtype=np.float64)
        return self.weights[self.indptr[node]:self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        nbrs = self.neighbors(u)
        # neighbor lists are small in sparse graphs; linear scan is fine
        # and avoids requiring sorted indices.
        return bool(np.any(nbrs == v))

    def edge_list(self) -> np.ndarray:
        """``(m, 2)`` array of undirected edges with ``u < v`` per row,
        sorted lexicographically."""
        if self._edge_rows is not None:
            return self._edge_rows
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                        np.diff(self.indptr))
        mask = src < self.indices
        edges = np.stack([src[mask], self.indices[mask]], axis=1)
        # Rows come out grouped by ``u``, and :meth:`from_edges` stores
        # each node's ``v > u`` neighbors in increasing order, so the
        # sort is needed only for CSR built by the raw constructor.
        keys = edges[:, 0] * self.num_nodes + edges[:, 1]
        if np.all(keys[1:] > keys[:-1]):
            return edges
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        return edges[order]

    def edge_weight_list(self) -> np.ndarray:
        """Weights aligned with :meth:`edge_list` (ones if unweighted)."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                        np.diff(self.indptr))
        mask = src < self.indices
        if self.weights is None:
            w = np.ones(int(mask.sum()), dtype=np.float64)
        else:
            w = self.weights[mask]
        edges_src, edges_dst = src[mask], self.indices[mask]
        order = np.lexsort((edges_dst, edges_src))
        return w[order]

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------

    def with_features(self, features: Optional[np.ndarray]) -> "Graph":
        """Copy of this graph sharing structure but with new features."""
        return Graph(self.indptr, self.indices, weights=self.weights,
                     features=features)

    def subgraph(self, nodes: np.ndarray, relabel: bool = True) -> "Graph":
        """Node-induced subgraph.

        With ``relabel=True`` (the default) node ``nodes[i]`` becomes
        node ``i`` of the result and features are sliced accordingly.
        With ``relabel=False`` the result keeps the original id space
        (non-selected nodes become isolated).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size != np.unique(nodes).size:
            raise GraphError("subgraph nodes must be unique")
        member = np.zeros(self.num_nodes, dtype=bool)
        member[nodes] = True
        edges = self.edge_list()
        keep = (member[edges[:, 0]] & member[edges[:, 1]]
                if edges.shape[0] else np.zeros(0, dtype=bool))
        edges = edges[keep]
        weights = None
        if self.weights is not None:
            weights = self.edge_weight_list()[keep]
        if relabel:
            remap = np.full(self.num_nodes, -1, dtype=np.int64)
            remap[nodes] = np.arange(nodes.size, dtype=np.int64)
            edges = remap[edges] if edges.size else edges
            feats = None if self.features is None else self.features[nodes]
            return Graph.from_edges(nodes.size, edges, features=feats,
                                    edge_weights=weights)
        feats = None
        if self.features is not None:
            feats = np.zeros_like(self.features)
            feats[nodes] = self.features[nodes]
        return Graph.from_edges(self.num_nodes, edges, features=feats,
                                edge_weights=weights)

    def edge_subgraph(self, edges: np.ndarray,
                      edge_weights: Optional[np.ndarray] = None) -> "Graph":
        """Graph over the *same* node set restricted to ``edges``."""
        return Graph.from_edges(self.num_nodes, edges, features=self.features,
                                edge_weights=edge_weights)

    def remove_edges(self, edges: np.ndarray) -> "Graph":
        """Copy of this graph with the given undirected edges removed."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        drop = set(zip(lo.tolist(), hi.tolist()))
        current = self.edge_list()
        keep = np.array(
            [(int(u), int(v)) not in drop for u, v in current], dtype=bool
        ) if current.shape[0] else np.zeros(0, dtype=bool)
        kept_w = None
        if self.weights is not None:
            kept_w = self.edge_weight_list()[keep]
        return Graph.from_edges(self.num_nodes, current[keep],
                                features=self.features, edge_weights=kept_w)

    # ------------------------------------------------------------------
    # matrix views
    # ------------------------------------------------------------------

    def adjacency(self, weighted: bool = True) -> sp.csr_matrix:
        """Adjacency matrix as ``scipy.sparse.csr_matrix``."""
        if weighted and self.weights is not None:
            data = self.weights.astype(np.float64)
        else:
            data = np.ones(self.num_directed_edges, dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.num_nodes, self.num_nodes))

    # ------------------------------------------------------------------
    # sizes (used by communication accounting)
    # ------------------------------------------------------------------

    def structure_nbytes(self) -> int:
        """Bytes needed to ship the CSR structure."""
        return int(self.indptr.nbytes + self.indices.nbytes)

    def feature_nbytes(self, num_nodes: Optional[int] = None) -> int:
        """Bytes needed to ship feature vectors of ``num_nodes`` nodes
        (all nodes by default)."""
        if self.features is None:
            return 0
        n = self.num_nodes if num_nodes is None else num_nodes
        return int(n) * int(self.features.shape[1]) * self.features.itemsize

    def total_nbytes(self) -> int:
        """Structure plus feature storage, in bytes."""
        return self.structure_nbytes() + self.feature_nbytes()

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
                f"feature_dim={self.feature_dim}, "
                f"weighted={self.weights is not None})")
