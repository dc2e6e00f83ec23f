"""Sampling subsystem: blocks, neighbor sampler, negatives, loader."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.trainer import TrainConfig
from repro.graph import Graph
from repro.sampling import (
    Block,
    EdgeBatchLoader,
    EdgeMembership,
    GlobalUniformNegativeSampler,
    GraphNeighborSource,
    NeighborSampler,
    PerSourceUniformNegativeSampler,
    classify_negatives,
    sample_block,
)
from repro.sampling.blocks import sorted_unique


class TestBlock:
    def test_validation_edge_src_range(self):
        with pytest.raises(ValueError):
            Block(src_nodes=np.array([0, 1]), num_dst=1,
                  edge_src=np.array([5]), edge_dst=np.array([0]),
                  edge_weight=np.array([1.0]))

    def test_validation_edge_dst_range(self):
        with pytest.raises(ValueError):
            Block(src_nodes=np.array([0, 1]), num_dst=1,
                  edge_src=np.array([1]), edge_dst=np.array([1]),
                  edge_weight=np.array([1.0]))

    @pytest.mark.parametrize("edge_src, edge_dst", [(-1, 0), (1, -1)])
    def test_validation_negative_edge_ids(self, edge_src, edge_dst):
        with pytest.raises(ValueError, match="out of range"):
            Block(src_nodes=np.array([0, 1]), num_dst=1,
                  edge_src=np.array([edge_src]), edge_dst=np.array([edge_dst]),
                  edge_weight=np.array([1.0]))

    def test_validation_weight_alignment(self):
        with pytest.raises(ValueError):
            Block(src_nodes=np.array([0, 1]), num_dst=1,
                  edge_src=np.array([1]), edge_dst=np.array([0]),
                  edge_weight=np.array([1.0, 2.0]))

    def test_num_dst_bound(self):
        with pytest.raises(ValueError):
            Block(src_nodes=np.array([0]), num_dst=2,
                  edge_src=np.zeros(0, int), edge_dst=np.zeros(0, int),
                  edge_weight=np.zeros(0))

    def test_dst_nodes_prefix(self):
        b = Block(src_nodes=np.array([7, 9, 11]), num_dst=2,
                  edge_src=np.array([2]), edge_dst=np.array([0]),
                  edge_weight=np.array([1.0]))
        assert b.dst_nodes.tolist() == [7, 9]
        assert b.num_src == 3
        assert b.num_edges == 1


class TestGraphNeighborSource:
    def test_matches_graph_neighbors(self, cycle_graph):
        src = GraphNeighborSource(cycle_graph)
        nodes = np.array([0, 2])
        nbrs, weights, offsets = src.neighbors_batch(nodes)
        assert sorted(nbrs[offsets[0]:offsets[1]].tolist()) == \
            sorted(cycle_graph.neighbors(0).tolist())
        assert sorted(nbrs[offsets[1]:offsets[2]].tolist()) == \
            sorted(cycle_graph.neighbors(2).tolist())
        assert np.all(weights == 1.0)

    def test_isolated_node(self):
        g = Graph.from_edges(3, [[0, 1]])
        nbrs, _, offsets = GraphNeighborSource(g).neighbors_batch(
            np.array([2]))
        assert nbrs.size == 0
        assert offsets.tolist() == [0, 0]

    def test_weighted_graph(self):
        g = Graph.from_edges(2, [[0, 1]], edge_weights=[2.5])
        _, weights, _ = GraphNeighborSource(g).neighbors_batch(np.array([0]))
        assert weights.tolist() == [2.5]


class TestSampleBlock:
    def test_full_neighbors_with_minus_one(self, star_graph, rng):
        block = sample_block(GraphNeighborSource(star_graph),
                             np.array([0]), fanout=-1, rng=rng)
        assert block.num_edges == 4

    def test_fanout_limits_edges(self, star_graph, rng):
        block = sample_block(GraphNeighborSource(star_graph),
                             np.array([0]), fanout=2, rng=rng)
        assert block.num_edges == 2

    def test_fanout_without_replacement(self, star_graph, rng):
        block = sample_block(GraphNeighborSource(star_graph),
                             np.array([0]), fanout=4, rng=rng)
        sampled = block.src_nodes[block.edge_src]
        assert np.unique(sampled).size == 4

    def test_seeds_prefix_src_nodes(self, cycle_graph, rng):
        seeds = np.array([1, 3])
        block = sample_block(GraphNeighborSource(cycle_graph), seeds,
                             fanout=-1, rng=rng)
        assert block.src_nodes[:2].tolist() == [1, 3]

    def test_edges_are_real(self, featured_graph, rng):
        seeds = np.arange(10)
        block = sample_block(GraphNeighborSource(featured_graph), seeds,
                             fanout=3, rng=rng)
        for s, d in zip(block.edge_src, block.edge_dst):
            u = block.src_nodes[s]
            v = block.src_nodes[d]
            assert featured_graph.has_edge(int(u), int(v))


class TestNeighborSampler:
    def test_block_count(self, featured_graph, rng):
        sampler = NeighborSampler([5, 3, 2], rng=rng)
        cg = sampler.sample(featured_graph, np.array([0, 1]))
        assert cg.num_layers == 3

    def test_layer_chaining(self, featured_graph, rng):
        """Block k's src node set must be block k+1's frontier."""
        sampler = NeighborSampler([4, 2], rng=rng)
        cg = sampler.sample(featured_graph, np.array([0, 1, 2]))
        assert np.array_equal(cg.blocks[1].src_nodes[:cg.blocks[1].num_dst],
                              cg.seeds)
        assert cg.blocks[0].num_dst == cg.blocks[1].num_src

    def test_seeds_deduplicated(self, featured_graph, rng):
        sampler = NeighborSampler([3], rng=rng)
        cg = sampler.sample(featured_graph, np.array([5, 5, 2]))
        assert cg.seeds.tolist() == [2, 5]

    def test_input_nodes_cover_seeds(self, featured_graph, rng):
        sampler = NeighborSampler([3, 3], rng=rng)
        cg = sampler.sample(featured_graph, np.array([0, 7]))
        assert set(cg.seeds.tolist()) <= set(cg.input_nodes.tolist())

    def test_empty_fanouts_rejected(self):
        with pytest.raises(ValueError):
            NeighborSampler([])

    @pytest.mark.parametrize("bad", [0, -2, -3, 2.5, True, "3", None])
    def test_bad_fanout_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            NeighborSampler([5, bad])

    @pytest.mark.parametrize("fanouts, bad", [((0, 5), 0), ((-3, 5), -3),
                                              ((5, 2.5), 2.5)])
    def test_train_config_rejects_bad_fanouts(self, fanouts, bad):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            TrainConfig(num_layers=2, fanouts=fanouts)

    def test_good_fanouts_accepted(self):
        assert NeighborSampler([-1, 1, np.int64(25)]).fanouts == [-1, 1, 25]
        assert TrainConfig(num_layers=2, fanouts=(-1, 3)).fanouts == (-1, 3)

    def test_deterministic_given_rng(self, featured_graph):
        a = NeighborSampler([3, 2], rng=np.random.default_rng(5)).sample(
            featured_graph, np.array([1, 2]))
        b = NeighborSampler([3, 2], rng=np.random.default_rng(5)).sample(
            featured_graph, np.array([1, 2]))
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.src_nodes, bb.src_nodes)
            assert np.array_equal(ba.edge_src, bb.edge_src)


class TestEdgeMembership:
    def test_membership(self, triangle_graph):
        m = EdgeMembership(triangle_graph)
        assert (0, 1) in m
        assert (1, 0) in m
        assert (0, 0) in m  # self-pairs excluded from negatives
        assert not ((7, 8) in m)

    def test_contains_many(self, triangle_graph):
        m = EdgeMembership(triangle_graph)
        pairs = np.array([[0, 1], [1, 1], [0, 2], [1, 2]])
        assert m.contains_many(pairs).tolist() == [True, True, True, True]


class TestPerSourceSampler:
    def test_avoids_edges(self, featured_graph, rng):
        sampler = PerSourceUniformNegativeSampler(featured_graph, rng=rng)
        sources = featured_graph.edge_list()[:50, 0]
        pairs = sampler.sample(sources)
        membership = EdgeMembership(featured_graph)
        assert not membership.contains_many(pairs).any()

    def test_sources_preserved(self, featured_graph, rng):
        sampler = PerSourceUniformNegativeSampler(featured_graph, rng=rng)
        sources = np.array([3, 1, 4])
        pairs = sampler.sample(sources)
        assert np.array_equal(pairs[:, 0], sources)

    def test_candidate_restriction(self, featured_graph, rng):
        candidates = np.arange(20, 40)
        sampler = PerSourceUniformNegativeSampler(
            featured_graph, candidates=candidates, rng=rng)
        pairs = sampler.sample(np.zeros(30, dtype=np.int64))
        assert np.all((pairs[:, 1] >= 20) & (pairs[:, 1] < 40))

    def test_empty_candidates_rejected(self, featured_graph, rng):
        with pytest.raises(ValueError):
            PerSourceUniformNegativeSampler(
                featured_graph, candidates=np.array([], dtype=np.int64))


class TestGlobalSampler:
    def test_avoids_edges_and_self(self, featured_graph, rng):
        sampler = GlobalUniformNegativeSampler(featured_graph, rng=rng)
        pairs = sampler.sample(200)
        membership = EdgeMembership(featured_graph)
        assert not membership.contains_many(pairs).any()
        assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_count(self, featured_graph, rng):
        sampler = GlobalUniformNegativeSampler(featured_graph, rng=rng)
        assert sampler.sample(77).shape == (77, 2)

    def test_needs_two_candidates(self, featured_graph):
        with pytest.raises(ValueError):
            GlobalUniformNegativeSampler(featured_graph,
                                         candidates=np.array([0]))


class TestClassifyNegatives:
    def test_local_vs_global(self):
        assignment = np.array([0, 0, 1, 1])
        pairs = np.array([[0, 1], [0, 2], [2, 3], [1, 3]])
        local = classify_negatives(pairs, assignment)
        assert local.tolist() == [True, False, True, False]


class TestEdgeBatchLoader:
    def test_covers_all_edges(self, rng):
        edges = np.arange(20).reshape(10, 2)
        loader = EdgeBatchLoader(edges, 3, rng=rng)
        seen = np.concatenate(list(loader))
        assert sorted(map(tuple, seen.tolist())) == \
            sorted(map(tuple, edges.tolist()))

    def test_batch_sizes(self, rng):
        loader = EdgeBatchLoader(np.arange(20).reshape(10, 2), 4, rng=rng)
        sizes = [b.shape[0] for b in loader]
        assert sizes == [4, 4, 2]

    def test_len(self, rng):
        loader = EdgeBatchLoader(np.arange(20).reshape(10, 2), 4, rng=rng)
        assert len(loader) == 3

    def test_drop_last(self, rng):
        loader = EdgeBatchLoader(np.arange(20).reshape(10, 2), 4, rng=rng,
                                 drop_last=True)
        sizes = [b.shape[0] for b in loader]
        assert sizes == [4, 4]

    def test_shuffles_between_epochs(self):
        loader = EdgeBatchLoader(np.arange(40).reshape(20, 2), 20,
                                 rng=np.random.default_rng(0))
        first = next(iter(loader))
        second = next(iter(loader))
        assert not np.array_equal(first, second)

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            EdgeBatchLoader(np.zeros((0, 2)), 4, rng=rng)

    def test_bad_batch_size(self, rng):
        with pytest.raises(ValueError):
            EdgeBatchLoader(np.arange(4).reshape(2, 2), 0, rng=rng)


class TestSortedUnique:
    """``sorted_unique`` is ``np.unique`` on integer ids, value for
    value and dtype for dtype."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=40),
           st.sampled_from(["raw", "sorted", "strict", "doubled",
                            "narrow"]),
           st.sampled_from([np.int64, np.int32]))
    def test_equals_np_unique(self, values, shape, dtype):
        ids = np.array(values, dtype=np.int64)
        if shape == "sorted":
            ids = np.sort(ids)
        elif shape == "strict":
            ids = np.unique(ids)
        elif shape == "doubled":
            ids = np.repeat(ids, 2)
        elif shape == "narrow":
            ids = ids % 5
        ids = ids.astype(dtype)
        got, want = sorted_unique(ids), np.unique(ids)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_empty_and_two_dimensional(self):
        for ids in (np.zeros(0, dtype=np.int64),
                    np.array([[3, 1], [1, 2]], dtype=np.int64),
                    np.array([[1, 2], [3, 4]], dtype=np.int64)):
            want = np.unique(ids)
            got = sorted_unique(ids)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
