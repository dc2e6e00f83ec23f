"""Property tests of the vectorised sample → fetch → aggregate path.

Every oracle is the public per-node API (or ``np.add.at`` itself for
the scatter-add): a batched answer must equal what asking one node at
a time gives.  The one copied implementation is the lexsort / unique /
searchsorted ``sample_block`` that the linear-pass one replaced, kept
here as its exactness oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distributed import (
    CommMeter,
    RemoteGraphStore,
    SparsifiedRemoteStore,
    WorkerGraphView,
)
from repro.graph import Graph
from repro.nn import Tensor, gather, segment_sum
from repro.nn.tensor import _scatter_add_rows
from repro.partition import PartitionedGraph
from repro.sampling import (
    Block,
    EdgeMembership,
    GraphNeighborSource,
    sample_block,
)

common_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NUM_PARTS = 3


@st.composite
def sparse_graphs(draw):
    """Small graphs that usually keep some zero-degree nodes."""
    n = draw(st.integers(2, 24))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n))
    return Graph.from_edges(n, np.asarray(edges, np.int64).reshape(-1, 2))


@st.composite
def graph_and_queries(draw):
    """A graph plus a query with repeats (possibly empty)."""
    graph = draw(sparse_graphs())
    nodes = draw(st.lists(st.integers(0, graph.num_nodes - 1), max_size=12))
    return graph, np.asarray(nodes, dtype=np.int64)


@st.composite
def layouts(draw):
    """A partitioned graph, a weighted thinned copy of every partition
    (what the sparsifier hands the store) and a query."""
    graph, nodes = draw(graph_and_queries())
    owners = draw(hnp.arrays(np.int64, graph.num_nodes,
                             elements=st.integers(0, NUM_PARTS - 1)))
    layout = PartitionedGraph.build(graph, owners, NUM_PARTS,
                                    mirror=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    thinned = []
    for part in layout.parts:
        edges = part.edge_list()
        edges = edges[rng.random(edges.shape[0]) < 0.7]
        thinned.append(Graph.from_edges(
            graph.num_nodes, edges,
            edge_weights=rng.random(edges.shape[0]) + 0.5))
    return layout, thinned, nodes


def assert_batch_is_concatenation(query, nodes, single_query=None):
    """``query(nodes)`` equals the per-node answers laid end to end,
    array for array, dtypes included."""
    single_query = single_query or query
    nbrs, weights, offsets = query(nodes)
    singles = [single_query(nodes[i:i + 1]) for i in range(nodes.size)]
    sizes = [s[0].size for s in singles]
    want_nbrs = np.concatenate([np.zeros(0, np.int64)]
                               + [s[0] for s in singles])
    want_weights = np.concatenate([np.zeros(0, np.float64)]
                                  + [s[1] for s in singles])
    want_offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    for got, want in ((nbrs, want_nbrs), (weights, want_weights),
                      (offsets, want_offsets)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for single in singles:
        assert single[2].dtype == np.int64
        assert single[2].tolist() == [0, single[0].size]
    return nbrs, offsets


class TestNeighborsBatch:
    @common_settings
    @given(graph_and_queries())
    def test_graph_source(self, case):
        graph, nodes = case
        source = GraphNeighborSource(graph)
        nbrs, _ = assert_batch_is_concatenation(source.neighbors_batch,
                                                nodes)
        assert nbrs.size == int(graph.degrees[nodes].sum())

    @common_settings
    @given(layouts())
    def test_sparsified_store(self, case):
        layout, thinned, nodes = case
        store = SparsifiedRemoteStore(layout.full, thinned,
                                      layout.node_owner)
        batched, single, expected = CommMeter(), CommMeter(), CommMeter()
        nbrs, _ = assert_batch_is_concatenation(
            lambda q: store.neighbors_batch(q, batched), nodes,
            lambda q: store.neighbors_batch(q, single))
        expected.charge_structure(num_edges=nbrs.size,
                                  num_queried_nodes=nodes.size,
                                  weighted=True)
        assert batched.current == expected.current
        if nodes.size:
            assert single.current == expected.current

    @common_settings
    @given(layouts(), st.integers(0, NUM_PARTS - 1),
           st.sampled_from(["any", "local", "remote"]))
    def test_worker_view_over_sparsified_store(self, case, part, regime):
        layout, thinned, nodes = case
        store = SparsifiedRemoteStore(layout.full, thinned,
                                      layout.node_owner)
        local = layout.local_structure_mask(part)[nodes]
        if regime == "local":
            nodes = nodes[local]
        elif regime == "remote":
            nodes = nodes[~local]
        local = layout.local_structure_mask(part)[nodes]
        batched, single, expected = CommMeter(), CommMeter(), CommMeter()
        view = WorkerGraphView(layout, part, remote=store, meter=batched)
        lone = WorkerGraphView(layout, part, remote=store, meter=single)
        _, offsets = assert_batch_is_concatenation(
            view.neighbors_batch, nodes, lone.neighbors_batch)
        if not local.all():
            expected.charge_structure(
                num_edges=int(np.diff(offsets)[~local].sum()),
                num_queried_nodes=int((~local).sum()), weighted=True)
        assert batched.current == expected.current
        assert single.current == expected.current

    @common_settings
    @given(layouts(), st.integers(0, NUM_PARTS - 1))
    def test_worker_view_complete_and_local_only(self, case, part):
        layout, _, nodes = case
        store = RemoteGraphStore(layout.full)
        batched, single = CommMeter(), CommMeter()
        complete = WorkerGraphView(layout, part, remote=store, meter=batched)
        lone = WorkerGraphView(layout, part, remote=store, meter=single)
        nbrs, _ = assert_batch_is_concatenation(
            complete.neighbors_batch, nodes, lone.neighbors_batch)
        # Complete data-sharing serves the full graph's lists and
        # charges only what the partition lost.
        assert nbrs.size == int(layout.full.degrees[nodes].sum())
        assert batched.current == single.current
        local_only = WorkerGraphView(layout, part)
        assert_batch_is_concatenation(local_only.neighbors_batch, nodes)


#: Seeds 0-2 are each other's neighbours, 3 hangs off 2, 4 is isolated.
TRIANGLE_AND_LEAF = Graph.from_edges(5, [[0, 1], [1, 2], [0, 2], [2, 3]])


class FixedKeys:
    """A generator stand-in whose ``random`` returns given keys."""

    def __init__(self, keys):
        self.keys = keys

    def random(self, size):
        assert size == self.keys.size
        return self.keys.copy()


@st.composite
def weighted_graph_and_seeds(draw):
    """A graph (weighted or not) and seeds with repeats, seeds adjacent
    to each other, zero-degree seeds, or none at all."""
    graph, seeds = draw(graph_and_queries())
    if draw(st.booleans()):
        edges = graph.edge_list()
        weights = draw(hnp.arrays(np.float64, edges.shape[0],
                                  elements=st.floats(0.25, 4.0)))
        graph = Graph.from_edges(graph.num_nodes, edges,
                                 edge_weights=weights)
    return graph, seeds


def reference_sample_block(source, seeds, fanout, rng):
    """``sample_block`` as it was written before the linear passes:
    lexsort by (destination, key), ``np.unique`` + ``np.isin`` for the
    rows, a stable argsort + ``searchsorted`` for the id → row map."""
    seeds = np.asarray(seeds, dtype=np.int64)
    nbrs, weights, offsets = source.neighbors_batch(seeds)
    counts = np.diff(offsets)
    dst_per_edge = np.repeat(np.arange(seeds.size, dtype=np.int64), counts)
    if fanout >= 0 and nbrs.size:
        keys = rng.random(nbrs.size)
        order = np.lexsort((keys, dst_per_edge))
        sorted_dst = dst_per_edge[order]
        rank = np.arange(sorted_dst.size) - offsets[sorted_dst]
        keep = order[rank < fanout]
        nbrs, weights, dst_per_edge = (nbrs[keep], weights[keep],
                                       dst_per_edge[keep])
    src_nodes = seeds
    if nbrs.size:
        extra = np.unique(nbrs)
        src_nodes = np.concatenate(
            [seeds, extra[~np.isin(extra, seeds, assume_unique=False)]])
    by_id = np.argsort(src_nodes, kind="stable")
    edge_src = by_id[np.searchsorted(src_nodes[by_id], nbrs)]
    return Block(src_nodes=src_nodes, num_dst=int(seeds.size),
                 edge_src=edge_src, edge_dst=dst_per_edge,
                 edge_weight=weights)


def assert_same_block(got, want):
    """Array for array, dtypes included."""
    assert got.num_dst == want.num_dst
    for name in ("src_nodes", "edge_src", "edge_dst", "edge_weight"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestSampleBlock:
    @common_settings
    @given(graph_and_queries(), st.integers(-1, 4),
           st.integers(0, 2**31 - 1))
    def test_block_invariants(self, case, fanout, seed):
        graph, seeds = case
        source = GraphNeighborSource(graph)
        block = sample_block(source, seeds, fanout,
                             np.random.default_rng(seed))
        again = sample_block(source, seeds, fanout,
                             np.random.default_rng(seed))
        for name in ("src_nodes", "edge_src", "edge_dst", "edge_weight"):
            assert np.array_equal(getattr(block, name), getattr(again, name))
        assert block.num_dst == seeds.size
        assert np.array_equal(block.src_nodes[:block.num_dst], seeds)
        # Rows past the seeds are distinct non-seed nodes.
        extra = block.src_nodes[block.num_dst:]
        assert np.unique(extra).size == extra.size
        assert not np.isin(extra, seeds).any()
        kept = np.bincount(block.edge_dst, minlength=seeds.size)
        degrees = graph.degrees[seeds]
        if fanout < 0:
            assert np.array_equal(kept, degrees)
        else:
            assert np.array_equal(kept, np.minimum(degrees, fanout))
        # edge_src names, through src_nodes, a real neighbour of the
        # edge's destination seed — each at most once.
        sampled = block.src_nodes[block.edge_src]
        for dst in range(seeds.size):
            mine = sampled[block.edge_dst == dst]
            assert np.unique(mine).size == mine.size
            assert np.isin(mine, graph.neighbors(int(seeds[dst]))).all()
        # An id held by several rows (duplicate seeds) maps to the first.
        first_row = {}
        for row, node in enumerate(block.src_nodes.tolist()):
            first_row.setdefault(node, row)
        assert block.edge_src.tolist() == [first_row[n]
                                           for n in sampled.tolist()]

    def test_full_fanout_keeps_source_order(self):
        graph = Graph.from_edges(5, [[0, 1], [0, 2], [0, 3], [2, 4]])
        source = GraphNeighborSource(graph)
        seeds = np.array([2, 0, 2])
        block = sample_block(source, seeds, -1, np.random.default_rng(0))
        nbrs, weights, _ = source.neighbors_batch(seeds)
        assert np.array_equal(block.src_nodes[block.edge_src], nbrs)
        assert np.array_equal(block.edge_weight, weights)
        assert block.edge_dst.tolist() == [0, 0, 1, 1, 1, 2, 2]

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(weighted_graph_and_seeds(), st.sampled_from([-1, 1, 3, 10]),
           st.integers(0, 2**31 - 1))
    @example((TRIANGLE_AND_LEAF, np.array([2, 0, 4, 2, 3])), 1, 0)
    @example((TRIANGLE_AND_LEAF, np.array([1, 0, 1])), -1, 0)
    @example((TRIANGLE_AND_LEAF, np.zeros(0, np.int64)), 3, 0)
    def test_equals_the_sort_and_search_algorithm(self, case, fanout, seed):
        graph, seeds = case
        source = GraphNeighborSource(graph)
        assert_same_block(
            sample_block(source, seeds, fanout, np.random.default_rng(seed)),
            reference_sample_block(source, seeds, fanout,
                                   np.random.default_rng(seed)))

    def test_rounding_collision_takes_lexsort(self, monkeypatch):
        # Destination 2 draws keys 0.5 and the next double above it:
        # both sums round to 2.5, so only lexsort orders them, and it
        # must put the second edge (key 0.5) first.
        graph = Graph.from_edges(6, [[0, 3], [1, 4], [2, 4], [2, 5]])
        source = GraphNeighborSource(graph)
        keys = np.array([0.1, 0.2, np.nextafter(0.5, 1.0), 0.5])
        assert 2 + keys[2] == 2 + keys[3]
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort",
                            lambda k: calls.append(1) or lexsort(k))
        for fanout in (1, 10):
            block = sample_block(source, [0, 1, 2], fanout, FixedKeys(keys))
            assert_same_block(block, reference_sample_block(
                source, [0, 1, 2], fanout, FixedKeys(keys)))
            sampled = block.src_nodes[block.edge_src]
            assert sampled[block.edge_dst == 2][0] == 5
        # Twice in sample_block, twice in the reference.
        assert len(calls) == 4

    @pytest.mark.parametrize("seeds, bad", [([-5], -5), ([-1, 3], -1),
                                            ([200, 3], 200)])
    def test_out_of_range_seed_rejected(self, seeds, bad):
        source = GraphNeighborSource(Graph.from_edges(
            200, [[i, (i + 1) % 200] for i in range(200)]))
        message = rf"node id {bad} outside \[0, 200\)"
        with pytest.raises(ValueError, match=message):
            source.neighbors_batch(np.array(seeds))
        with pytest.raises(ValueError, match=message):
            sample_block(source, seeds, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_out_of_range_neighbour_rejected(self, bad):
        class Lying:
            num_nodes = 10

            def neighbors_batch(self, nodes):
                return (np.array([1, bad]), np.ones(2),
                        np.array([0, 2], dtype=np.int64))

        with pytest.raises(ValueError,
                           match=rf"node id {bad} outside \[0, 10\)"):
            sample_block(Lying(), [0], -1, np.random.default_rng(0))


SPECIALS = [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 1e-308]
floats = st.one_of(st.sampled_from(SPECIALS),
                   st.floats(allow_nan=False, width=64))


@st.composite
def scatter_cases(draw):
    """(index, values, num_rows): unsorted repeated ids, 1-D to 3-D
    values, optionally a non-contiguous view."""
    num_rows = draw(st.integers(1, 9))
    count = draw(st.integers(0, 24))
    trailing = draw(st.sampled_from([(), (1,), (3,), (5,), (2, 3)]))
    index = draw(hnp.arrays(np.int64, count,
                            elements=st.integers(0, num_rows - 1)))
    values = draw(hnp.arrays(np.float64, (count,) + trailing,
                             elements=floats))
    if draw(st.booleans()):
        values = np.asfortranarray(values)
    return index, values, num_rows


class TestScatterAddRows:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scatter_cases())
    def test_bit_identical_to_add_at(self, case):
        index, values, num_rows = case
        want = np.zeros((num_rows,) + values.shape[1:])
        with np.errstate(invalid="ignore", over="ignore"):
            np.add.at(want, index, values)
            got = _scatter_add_rows(index, values, num_rows)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_strided_values(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((12, 8))[::2, ::2]
        index = np.array([3, 0, 3, 3, 1, 0])
        want = np.zeros((4, 4))
        np.add.at(want, index, values)
        assert _scatter_add_rows(index, values, 4).tobytes() == \
            want.tobytes()

    def test_negative_zero_sum_is_positive_zero(self):
        out = _scatter_add_rows(np.array([1, 1]),
                                np.array([[-0.0], [-0.0]]), 2)
        assert not np.signbit(out).any()

    def test_ops_match_add_at(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
        index = np.array([6, 0, 6, 2, 0, 6])
        want = np.zeros((3, 4))
        np.add.at(want, index % 3, x.data[index])
        out = segment_sum(gather(x, index), index % 3, 3)
        assert out.data.tobytes() == want.tobytes()
        upstream = rng.standard_normal((3, 4))
        out.backward(upstream)
        want_grad = np.zeros_like(x.data)
        np.add.at(want_grad, index, upstream[index % 3])
        assert x.grad.tobytes() == want_grad.tobytes()


class TestEdgeMembership:
    @common_settings
    @given(sparse_graphs(), st.data())
    def test_contains_many_is_per_pair_contains(self, graph, data):
        n = graph.num_nodes
        pairs = np.asarray(data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=20)), dtype=np.int64).reshape(-1, 2)
        membership = EdgeMembership(graph)
        got = membership.contains_many(pairs)
        assert got.dtype == bool
        assert got.tolist() == [tuple(p) in membership
                                for p in pairs.tolist()]
        assert got.tolist() == [u == v or graph.has_edge(u, v)
                                for u, v in pairs.tolist()]

    def test_every_edge_both_ways(self, featured_graph):
        membership = EdgeMembership(featured_graph)
        edges = featured_graph.edge_list()
        assert membership.contains_many(edges).all()
        assert membership.contains_many(edges[:, ::-1]).all()
        assert (0, 0) in membership
