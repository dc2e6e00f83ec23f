"""Graph statistics and structure analysis.

Utilities a practitioner needs when deciding how to partition and
sparsify a new graph: degree statistics, connectivity, clustering,
partition diagnostics.  The dataset generators' tests also use these to
verify that the synthetic Table I stand-ins have the structural
properties the experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from ..rng import ensure_rng
from .graph import Graph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of one graph."""

    num_nodes: int
    num_edges: int
    min_degree: int
    max_degree: int
    mean_degree: float
    median_degree: float
    num_components: int
    giant_component_fraction: float
    global_clustering: float

    def as_dict(self) -> Dict[str, float]:
        """All statistics as one plain serializable dict."""
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "mean_degree": self.mean_degree,
            "median_degree": self.median_degree,
            "num_components": self.num_components,
            "giant_component_fraction": self.giant_component_fraction,
            "global_clustering": self.global_clustering,
        }


def connected_components(graph: Graph) -> np.ndarray:
    """Component label per node."""
    # Imported on first call: ``scipy.sparse.csgraph`` pulls in
    # scipy.linalg, which ``import repro`` otherwise never loads.
    from scipy.sparse import csgraph

    _, labels = csgraph.connected_components(
        graph.adjacency(weighted=False), directed=False)
    return labels


def giant_component_fraction(graph: Graph) -> float:
    """Fraction of nodes in the largest connected component."""
    labels = connected_components(graph)
    if labels.size == 0:
        return 0.0
    counts = np.bincount(labels)
    return float(counts.max() / labels.size)


def global_clustering_coefficient(graph: Graph) -> float:
    """Transitivity: 3 * triangles / connected triples."""
    adj = graph.adjacency(weighted=False)
    adj.setdiag(0)
    adj.eliminate_zeros()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    triples = float(np.sum(deg * (deg - 1)) / 2.0)
    if triples == 0:
        return 0.0
    # trace(A^3) = 6 * number of triangles
    a2 = adj @ adj
    triangles = float((a2.multiply(adj)).sum()) / 6.0
    return 3.0 * triangles / triples


def degree_histogram(graph: Graph) -> np.ndarray:
    """``hist[d]`` = number of nodes with degree ``d``."""
    deg = graph.degrees
    return np.bincount(deg) if deg.size else np.zeros(1, dtype=np.int64)


def power_law_tail_ratio(graph: Graph, quantile: float = 0.99) -> float:
    """Top-quantile degree over median degree — a cheap skew indicator
    (heavy-tailed graphs score much higher than Erdős–Rényi ones)."""
    deg = graph.degrees.astype(np.float64)
    nonzero = deg[deg > 0]
    if nonzero.size == 0:
        return 0.0
    median = np.median(nonzero)
    top = np.quantile(nonzero, quantile)
    return float(top / max(median, 1.0))


def graph_stats(graph: Graph) -> GraphStats:
    """One-call summary used by dataset reports and tests."""
    deg = graph.degrees
    labels = connected_components(graph)
    counts = np.bincount(labels) if labels.size else np.zeros(1, int)
    return GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        min_degree=int(deg.min()) if deg.size else 0,
        max_degree=int(deg.max()) if deg.size else 0,
        mean_degree=float(deg.mean()) if deg.size else 0.0,
        median_degree=float(np.median(deg)) if deg.size else 0.0,
        num_components=int(counts.size),
        giant_component_fraction=float(counts.max() / max(labels.size, 1)),
        global_clustering=global_clustering_coefficient(graph),
    )


def k_hop_sizes(graph: Graph, nodes: np.ndarray, k: int) -> np.ndarray:
    """Number of distinct nodes within ``k`` hops of each query node
    (excluding the node itself).

    This is the quantity that drives the communication model: a remote
    negative destination costs its k-hop neighborhood in features and
    structure.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nodes = np.asarray(nodes, dtype=np.int64)
    out = np.empty(nodes.size, dtype=np.int64)
    for i, start in enumerate(nodes):
        frontier = {int(start)}
        seen = {int(start)}
        for _ in range(k):
            nxt = set()
            for u in frontier:
                nxt.update(graph.neighbors(u).tolist())
            frontier = nxt - seen
            seen |= frontier
            if not frontier:
                break
        out[i] = len(seen) - 1
    return out


def mean_k_hop_size(graph: Graph, k: int, sample: int = 200,
                    rng: Optional[np.random.Generator] = None) -> float:
    """Monte-Carlo estimate of the average k-hop neighborhood size."""
    rng = ensure_rng(rng)
    n = graph.num_nodes
    nodes = (np.arange(n) if n <= sample
             else rng.choice(n, size=sample, replace=False))
    return float(k_hop_sizes(graph, nodes, k).mean())


def modularity(graph: Graph, communities: np.ndarray) -> float:
    """Newman modularity of a node partition.

    Q = (1/2m) * sum_ij [A_ij - d_i d_j / 2m] * delta(c_i, c_j)
    """
    communities = np.asarray(communities, dtype=np.int64)
    if communities.size != graph.num_nodes:
        raise ValueError("communities must label every node")
    m2 = float(graph.degrees.sum())  # = 2m
    if m2 == 0:
        return 0.0
    edges = graph.edge_list()
    intra = np.count_nonzero(
        communities[edges[:, 0]] == communities[edges[:, 1]])
    # sum over communities of (total degree)^2
    deg_per_comm = np.zeros(int(communities.max()) + 1)
    np.add.at(deg_per_comm, communities, graph.degrees.astype(np.float64))
    expected = float(np.sum(deg_per_comm ** 2)) / (m2 * m2)
    return 2.0 * intra / m2 - expected


def partition_report(graph: Graph, assignment: np.ndarray,
                     num_parts: Optional[int] = None) -> Dict[str, float]:
    """Diagnostics for a partition: cut, balance, modularity."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if num_parts is None:
        num_parts = int(assignment.max()) + 1
    edges = graph.edge_list()
    cut = int(np.count_nonzero(
        assignment[edges[:, 0]] != assignment[edges[:, 1]])) \
        if edges.size else 0
    counts = np.bincount(assignment, minlength=num_parts)
    ideal = graph.num_nodes / num_parts
    return {
        "num_parts": num_parts,
        "edge_cut": cut,
        "cut_fraction": cut / max(graph.num_edges, 1),
        "balance": float(counts.max() / ideal) if ideal else 1.0,
        "modularity": modularity(graph, assignment),
    }
