"""A from-scratch multilevel k-way graph partitioner (mini-METIS).

The paper partitions with METIS [27], whose defining property for this
study is that it *minimizes edge cut* — producing well-connected
partitions whose internal structure differs from the global graph and
whose node neighbor lists get fragmented at partition boundaries.

This module reimplements the standard multilevel scheme:

1. **Coarsening** — repeated heavy-edge matching collapses matched node
   pairs until the graph is small.
2. **Initial partitioning** — greedy region growing on the coarsest
   graph, balancing collapsed node weights.
3. **Uncoarsening + refinement** — the partition is projected back
   level by level, with greedy Kernighan-Lin-style boundary moves that
   reduce edge cut subject to a balance constraint.

The result is a per-node partition assignment with an edge cut far
below random assignment, which is all the experiments need from METIS.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..rng import ensure_rng
from ..graph.graph import Graph


@dataclass
class _CoarseGraph:
    """Weighted graph used internally during coarsening."""

    indptr: np.ndarray
    indices: np.ndarray
    edge_weight: np.ndarray
    node_weight: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def num_directed_edges(self) -> int:
        return self.indices.size


def _to_coarse(graph: Graph) -> _CoarseGraph:
    weights = (np.ones(graph.num_directed_edges)
               if graph.weights is None else graph.weights.copy())
    return _CoarseGraph(
        indptr=graph.indptr.copy(),
        indices=graph.indices.copy(),
        edge_weight=weights,
        node_weight=np.ones(graph.num_nodes),
    )


def _heavy_edge_matching(g: _CoarseGraph,
                         rng: np.random.Generator) -> np.ndarray:
    """Match each node with its heaviest unmatched neighbor.

    Nodes are visited in one random permutation; ties keep the first
    neighbor in CSR order.  Returns ``match`` with ``match[u] = v`` (and
    ``match[v] = u``); unmatched nodes map to themselves.
    """
    n = g.num_nodes
    match = np.full(n, -1, dtype=np.int64)
    # Scalar reads through zero-copy views: ``tolist()`` of the CSR
    # would cost several times the graph's own memory at full size.
    m = memoryview(match)
    indptr = memoryview(g.indptr)
    indices = memoryview(g.indices)
    weight = memoryview(g.edge_weight)
    for u in memoryview(rng.permutation(n)):
        if m[u] != -1:
            continue
        start, stop = indptr[u], indptr[u + 1]
        best, best_w = u, -1.0
        for v, w in zip(indices[start:stop], weight[start:stop]):
            if m[v] == -1 and v != u and w > best_w:
                best, best_w = v, w
        m[u] = best
        m[best] = u
    return match


def _coarsen(g: _CoarseGraph,
             match: np.ndarray) -> Tuple[_CoarseGraph, np.ndarray]:
    """Collapse matched pairs; returns the coarse graph and the
    fine-to-coarse node map.

    ``match`` must be an involution (``match[match[u]] == u``), as
    :func:`_heavy_edge_matching` returns.  Coarse ids follow the smaller
    node of each pair: a pair's id is the rank of ``min(u, match[u])``.
    """
    n = g.num_nodes
    nodes = np.arange(n, dtype=np.int64)
    rank = np.cumsum(nodes <= match) - 1
    coarse_id = rank[np.minimum(nodes, match)]
    next_id = int(rank[-1]) + 1
    node_weight = np.zeros(next_id)
    np.add.at(node_weight, coarse_id, g.node_weight)

    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    csrc, cdst = coarse_id[src], coarse_id[g.indices]
    keep = csrc != cdst
    csrc, cdst, w = csrc[keep], cdst[keep], g.edge_weight[keep]
    # Merge parallel edges.
    key = csrc * next_id + cdst
    uniq, inv = np.unique(key, return_inverse=True)
    merged_w = np.zeros(uniq.size)
    np.add.at(merged_w, inv, w)
    msrc = (uniq // next_id).astype(np.int64)
    mdst = (uniq % next_id).astype(np.int64)
    order = np.argsort(msrc, kind="stable")
    msrc, mdst, merged_w = msrc[order], mdst[order], merged_w[order]
    indptr = np.zeros(next_id + 1, dtype=np.int64)
    np.add.at(indptr, msrc + 1, 1)
    np.cumsum(indptr, out=indptr)
    coarse = _CoarseGraph(indptr=indptr, indices=mdst,
                          edge_weight=merged_w, node_weight=node_weight)
    return coarse, coarse_id


def _greedy_initial_partition(g: _CoarseGraph, k: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Region growing: grow each partition by BFS until it reaches its
    weight target, then spill leftovers into the lightest partitions."""
    n = g.num_nodes
    total = g.node_weight.sum()
    target = total / k
    assign = np.full(n, -1, dtype=np.int64)
    loads = np.zeros(k)
    degrees = np.diff(g.indptr)
    # Start from hubs: compact regions.  This is NumPy's default
    # introsort, which is not stable: equal-degree hubs come out in a
    # kernel-defined order.  A stable sort would be the portable choice,
    # but it changes 1 of the 12 perf-fixture partitions, so it waits
    # for a planned re-baseline.
    seeds = np.argsort(-degrees)
    seed_pos = 0
    for part in range(k - 1):
        # find an unassigned seed
        while seed_pos < n and assign[seeds[seed_pos]] != -1:
            seed_pos += 1
        if seed_pos >= n:
            break
        frontier = [int(seeds[seed_pos])]
        while frontier and loads[part] < target:
            u = frontier.pop()
            if assign[u] != -1:
                continue
            assign[u] = part
            loads[part] += g.node_weight[u]
            for v in g.indices[g.indptr[u]:g.indptr[u + 1]]:
                if assign[v] == -1:
                    frontier.append(int(v))
    # Everything left goes to the lightest partitions.
    for u in np.flatnonzero(assign == -1):
        part = int(np.argmin(loads))
        assign[u] = part
        loads[part] += g.node_weight[u]
    return assign


def _refine(g: _CoarseGraph, assign: np.ndarray, k: int,
            balance_factor: float, passes: int) -> np.ndarray:
    """Greedy boundary refinement: move nodes to the neighboring
    partition with the highest edge-cut gain, within balance limits.

    Each pass visits nodes in ascending order and moves ``u`` to the
    first partition of maximal gain ``conn[p] - conn[assign[u]]`` among
    those with ``loads[p] + w_u <= max_load``, if that gain is positive.
    ``conn`` is built once per pass for every node as one ``(n, k)``
    table, accumulated in CSR order from 0.0.  A node is visited only if
    its row has a positive gain, or if a neighbor moved earlier in the
    pass (its row is then re-summed in the same order).  Any other node
    has the same row as at the start of the pass and no positive gain,
    so it cannot move under any loads: skipping it changes nothing.
    The CSR must be symmetric, as every :class:`Graph` is.
    """
    n = g.num_nodes
    loads = np.zeros(k)
    np.add.at(loads, assign, g.node_weight)
    loads = loads.tolist()
    max_load = float(balance_factor * g.node_weight.sum() / k)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr)) * k
    indptr = memoryview(g.indptr)
    indices = memoryview(g.indices)
    weight = memoryview(g.edge_weight)
    node_weight = memoryview(g.node_weight)
    a = memoryview(assign)
    for _ in range(passes):
        conn = np.bincount(src + assign[g.indices], weights=g.edge_weight,
                           minlength=n * k).reshape(n, k)
        own = conn[np.arange(n), assign]
        gaining = np.flatnonzero((conn > own[:, None]).any(axis=1))
        queued = np.zeros(n, dtype=np.bool_)
        queued[gaining] = True
        dirty = np.zeros(n, dtype=np.bool_)
        queued_v, dirty_v = memoryview(queued), memoryview(dirty)
        table = memoryview(conn.reshape(-1))
        heap = gaining.tolist()  # ascending, hence already a heap
        moved = 0
        while heap:
            u = heapq.heappop(heap)
            start, stop = indptr[u], indptr[u + 1]
            current = a[u]
            if dirty_v[u]:
                row = [0.0] * k
                for v, w in zip(indices[start:stop], weight[start:stop]):
                    row[a[v]] += w
            else:
                row = table[u * k:(u + 1) * k]
            own_conn = row[current]
            w_u = node_weight[u]
            best, best_gain = -1, 0.0
            # ``p == current`` has gain 0.0 and never beats best_gain.
            for p in range(k):
                gain = row[p] - own_conn
                if gain > best_gain and loads[p] + w_u <= max_load:
                    best, best_gain = p, gain
            if best < 0:
                continue
            a[u] = best
            loads[current] -= w_u
            loads[best] += w_u
            moved += 1
            for v in indices[start:stop]:
                if v > u:
                    dirty_v[v] = True
                    if not queued_v[v]:
                        queued_v[v] = True
                        heapq.heappush(heap, v)
        if moved == 0:
            break
    return assign


def metis_partition(
    graph: Graph,
    num_parts: int,
    rng: Optional[np.random.Generator] = None,
    balance_factor: float = 1.10,
    coarsen_until: Optional[int] = None,
    refine_passes: int = 4,
) -> np.ndarray:
    """Partition ``graph`` into ``num_parts`` parts, minimizing edge cut.

    Returns an assignment array ``a`` with ``a[v]`` in ``[0, num_parts)``.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if num_parts == 1:
        return np.zeros(graph.num_nodes, dtype=np.int64)
    if num_parts > graph.num_nodes:
        raise ValueError("more partitions than nodes")
    rng = ensure_rng(rng)
    coarsen_until = coarsen_until or max(32 * num_parts, 128)

    levels: List[Tuple[_CoarseGraph, np.ndarray]] = []
    g = _to_coarse(graph)
    while g.num_nodes > coarsen_until:
        match = _heavy_edge_matching(g, rng)
        coarse, fine_to_coarse = _coarsen(g, match)
        if coarse.num_nodes >= g.num_nodes * 0.95:
            break  # matching stalled (e.g. star graphs); stop coarsening
        levels.append((g, fine_to_coarse))
        g = coarse

    assign = _greedy_initial_partition(g, num_parts, rng)
    assign = _refine(g, assign, num_parts, balance_factor, refine_passes)
    # Project back through the levels, refining at each.
    for fine_graph, fine_to_coarse in reversed(levels):
        assign = assign[fine_to_coarse]
        assign = _refine(fine_graph, assign, num_parts, balance_factor,
                         refine_passes)
    return assign


def edge_cut(graph: Graph, assignment: np.ndarray) -> int:
    """Number of undirected edges crossing partitions."""
    edges = graph.edge_list()
    if edges.shape[0] == 0:
        return 0
    a = np.asarray(assignment)
    return int(np.count_nonzero(a[edges[:, 0]] != a[edges[:, 1]]))


def partition_balance(assignment: np.ndarray, num_parts: int) -> float:
    """Max partition size divided by the ideal size (1.0 = perfect)."""
    counts = np.bincount(assignment, minlength=num_parts)
    ideal = assignment.size / num_parts
    return float(counts.max() / ideal) if ideal else 1.0
