"""Unit tests for the multilevel partitioner's internal stages.

The per-vertex loops that matching, coarsening and refinement used to
be are kept here as oracles: each stage must return the same arrays,
bit for bit, on random graphs and through the whole pipeline.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import Graph, community_graph, synthetic_lp_graph
from repro.graph.splits import split_edges
from repro.partition import metis
from repro.partition.metis import (
    _coarsen,
    _CoarseGraph,
    _greedy_initial_partition,
    _heavy_edge_matching,
    _refine,
    _to_coarse,
    edge_cut,
    metis_partition,
    partition_balance,
)


@pytest.fixture
def two_triangles():
    """Two triangles joined by a single light edge."""
    return Graph.from_edges(6, [[0, 1], [1, 2], [0, 2],
                                [3, 4], [4, 5], [3, 5], [2, 3]])


class TestMatching:
    def test_matching_is_symmetric(self, two_triangles, rng):
        g = _to_coarse(two_triangles)
        match = _heavy_edge_matching(g, rng)
        for u in range(g.num_nodes):
            assert match[match[u]] == u

    def test_matching_prefers_heavy_edges(self, rng):
        # node 0 has a weight-10 edge to 1 and weight-1 edge to 2
        g = Graph.from_edges(3, [[0, 1], [0, 2]], edge_weights=[10.0, 1.0])
        matched_01 = 0
        for seed in range(20):
            match = _heavy_edge_matching(
                _to_coarse(g), np.random.default_rng(seed))
            if match[0] == 1:
                matched_01 += 1
        # 0-1 is chosen whenever node 0 or 1 is visited first (prob 2/3);
        # only "2 first" (prob 1/3) can steal node 0.
        assert matched_01 >= 10

    def test_isolated_node_self_matched(self, rng):
        g = Graph.from_edges(3, [[0, 1]])
        match = _heavy_edge_matching(_to_coarse(g), rng)
        assert match[2] == 2


class TestCoarsen:
    def test_node_weights_conserved(self, two_triangles, rng):
        g = _to_coarse(two_triangles)
        match = _heavy_edge_matching(g, rng)
        coarse, mapping = _coarsen(g, match)
        assert coarse.node_weight.sum() == g.node_weight.sum()
        assert mapping.shape == (6,)
        assert mapping.max() == coarse.num_nodes - 1

    def test_edge_weight_conserved_minus_internal(self, two_triangles, rng):
        g = _to_coarse(two_triangles)
        match = _heavy_edge_matching(g, rng)
        coarse, mapping = _coarsen(g, match)
        # Total directed edge weight shrinks exactly by collapsed
        # (intra-pair) edges.
        internal = sum(
            1.0 for u in range(6)
            for v in two_triangles.neighbors(u)
            if match[u] == v
        )
        assert coarse.edge_weight.sum() == pytest.approx(
            g.edge_weight.sum() - internal)

    def test_coarse_graph_halves(self, rng):
        # perfect matching on a cycle halves the node count
        g = Graph.from_edges(8, [[i, (i + 1) % 8] for i in range(8)])
        cg = _to_coarse(g)
        match = _heavy_edge_matching(cg, rng)
        coarse, _ = _coarsen(cg, match)
        assert coarse.num_nodes == 4


class TestInitialPartition:
    def test_covers_and_balances(self, rng):
        g = _to_coarse(Graph.from_edges(
            12, [[i, (i + 1) % 12] for i in range(12)]))
        assign = _greedy_initial_partition(g, 3, rng)
        assert assign.min() >= 0 and assign.max() <= 2
        counts = np.bincount(assign, minlength=3)
        assert counts.max() <= 8  # roughly balanced on a cycle


class TestRefine:
    def test_refinement_never_worsens_cut(self, two_triangles, rng):
        g = _to_coarse(two_triangles)
        # adversarial start: split each triangle across partitions
        assign = np.array([0, 1, 0, 1, 0, 1])
        before = edge_cut(two_triangles, assign)
        refined = _refine(g, assign.copy(), 2, balance_factor=1.4,
                          passes=4)
        after = edge_cut(two_triangles, refined)
        assert after <= before

    def test_refinement_finds_natural_cut(self, two_triangles, rng):
        g = _to_coarse(two_triangles)
        assign = np.array([0, 1, 0, 1, 0, 1])
        refined = _refine(g, assign.copy(), 2, balance_factor=1.4,
                          passes=8)
        # the natural bisection cuts exactly the bridge edge
        assert edge_cut(two_triangles, refined) == 1


# -- oracles: the plain loops the stages replaced ----------------------------

def oracle_heavy_edge_matching(g, rng):
    n = g.num_nodes
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for u in order:
        if match[u] != -1:
            continue
        start, stop = g.indptr[u], g.indptr[u + 1]
        nbrs = g.indices[start:stop]
        wts = g.edge_weight[start:stop]
        best, best_w = u, -1.0
        for v, w in zip(nbrs, wts):
            if match[v] == -1 and v != u and w > best_w:
                best, best_w = v, w
        match[u] = best
        match[best] = u
    return match


def oracle_coarsen(g, match):
    n = g.num_nodes
    coarse_id = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for u in range(n):
        if coarse_id[u] != -1:
            continue
        v = match[u]
        coarse_id[u] = next_id
        coarse_id[v] = next_id
        next_id += 1
    node_weight = np.zeros(next_id)
    np.add.at(node_weight, coarse_id, g.node_weight)

    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    csrc, cdst = coarse_id[src], coarse_id[g.indices]
    keep = csrc != cdst
    csrc, cdst, w = csrc[keep], cdst[keep], g.edge_weight[keep]
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


def oracle_refine(g, assign, k, balance_factor, passes):
    n = g.num_nodes
    loads = np.zeros(k)
    np.add.at(loads, assign, g.node_weight)
    max_load = balance_factor * g.node_weight.sum() / k
    for _ in range(passes):
        moved = 0
        for u in range(n):
            start, stop = g.indptr[u], g.indptr[u + 1]
            nbrs = g.indices[start:stop]
            wts = g.edge_weight[start:stop]
            if nbrs.size == 0:
                continue
            current = assign[u]
            conn = np.zeros(k)
            np.add.at(conn, assign[nbrs], wts)
            gains = conn - conn[current]
            gains[current] = -np.inf
            w_u = g.node_weight[u]
            feasible = loads + w_u <= max_load
            feasible[current] = False
            gains[~feasible] = -np.inf
            best = int(np.argmax(gains))
            if gains[best] > 0:
                assign[u] = best
                loads[current] -= w_u
                loads[best] += w_u
                moved += 1
        if moved == 0:
            break
    return assign


def oracle_metis_partition(graph, num_parts, **kwargs):
    """``metis_partition`` with every rewritten stage swapped for its
    oracle."""
    with mock.patch.multiple(metis,
                             _heavy_edge_matching=oracle_heavy_edge_matching,
                             _coarsen=oracle_coarsen,
                             _refine=oracle_refine):
        return metis_partition(graph, num_parts, **kwargs)


def random_weighted_graph(seed, n, density, weights):
    """A random simple graph; nodes past a random cut-off are isolated."""
    rng = np.random.default_rng(seed)
    active = int(rng.integers(1, n + 1))
    edges = rng.integers(0, active, size=(int(density * n), 2))
    if weights == "unit":
        edge_weights = None
    elif weights == "integer":
        edge_weights = rng.integers(1, 4, size=len(edges)).astype(float)
    else:
        edge_weights = rng.uniform(0.1, 3.0, size=len(edges))
    return Graph.from_edges(n, edges, edge_weights=edge_weights)


def assert_same_coarse(actual, expected):
    for field in ("indptr", "indices", "edge_weight", "node_weight"):
        np.testing.assert_array_equal(getattr(actual, field),
                                      getattr(expected, field))


class TestStagesEqualTheirOracles:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 160),
           density=st.floats(0.0, 4.0),
           weights=st.sampled_from(["unit", "integer", "real"]),
           k=st.integers(2, 64), balance_factor=st.floats(1.0, 1.5),
           passes=st.integers(0, 4))
    def test_random_graphs(self, seed, n, density, weights, k,
                           balance_factor, passes):
        graph = random_weighted_graph(seed, n, density, weights)
        g = _to_coarse(graph)

        match = _heavy_edge_matching(g, np.random.default_rng(seed))
        expected_match = oracle_heavy_edge_matching(
            g, np.random.default_rng(seed))
        np.testing.assert_array_equal(match, expected_match)

        coarse, fine_to_coarse = _coarsen(g, match)
        expected_coarse, expected_map = oracle_coarsen(g, match)
        np.testing.assert_array_equal(fine_to_coarse, expected_map)
        assert_same_coarse(coarse, expected_coarse)

        # Refine both levels: unit node weights, then the collapsed ones;
        # with real edge weights the node weights are real too.
        rng = np.random.default_rng(seed + 1)
        if weights == "real":
            coarse.node_weight = rng.uniform(0.5, 2.5, coarse.num_nodes)
        for level in (g, coarse):
            start = rng.integers(0, k, size=level.num_nodes)
            refined = _refine(level, start.copy(), k, balance_factor,
                              passes)
            expected = oracle_refine(level, start.copy(), k,
                                     balance_factor, passes)
            np.testing.assert_array_equal(refined, expected)

        if k <= n:
            kwargs = dict(balance_factor=balance_factor,
                          refine_passes=passes, coarsen_until=max(2, n // 8))
            np.testing.assert_array_equal(
                metis_partition(graph, k, rng=np.random.default_rng(seed),
                                **kwargs),
                oracle_metis_partition(graph, k,
                                       rng=np.random.default_rng(seed),
                                       **kwargs))

    @pytest.mark.parametrize("num_nodes, num_parts",
                             [(500, 4), (500, 64), (4000, 4)])
    def test_metis_partition_on_community_graphs(self, num_nodes,
                                                 num_parts):
        graph, _ = community_graph(num_nodes, 5 * num_nodes,
                                   rng=np.random.default_rng(num_nodes))
        np.testing.assert_array_equal(
            metis_partition(graph, num_parts, rng=np.random.default_rng(1)),
            oracle_metis_partition(graph, num_parts,
                                   rng=np.random.default_rng(1)))


# -- the balance defect, pinned until it is repaired -------------------------

BALANCE_DEFECT = ("ROADMAP 'Mini-METIS holds its contract at every size': "
                  "_refine only makes positive-gain moves, so it never "
                  "restores a broken balance")


class TestBalanceDefect:
    """Seeds where ``metis_partition`` exceeds its own ``balance_factor``.

    The repair flips these to passing, which ``strict=True`` turns into
    a failure until the markers go.
    """

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=BALANCE_DEFECT)
    def test_perf_fixture_seed_37(self):
        # The perf workloads' graph at seed 37: balance 1.384.
        graph = synthetic_lp_graph(4000, 20000, feature_dim=64,
                                   num_communities=8,
                                   rng=np.random.default_rng(37))
        split = split_edges(graph, rng=np.random.default_rng(138))
        assign = metis_partition(split.train_graph, 4,
                                 rng=np.random.default_rng(37))
        assert partition_balance(assign, 4) <= 1.10

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=BALANCE_DEFECT)
    def test_community_graph_16k_seed_0(self):
        # Balance 1.448: coarsening stalls on heavy super-nodes.
        graph, _ = community_graph(16000, 80000,
                                   rng=np.random.default_rng(0))
        assign = metis_partition(graph, 4, rng=np.random.default_rng(0))
        assert partition_balance(assign, 4) <= 1.10
