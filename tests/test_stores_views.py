"""Master stores and worker graph views: dispatch + charging."""

import numpy as np
import pytest

from repro.distributed import (
    CommMeter,
    RemoteGraphStore,
    SparsifiedRemoteStore,
    WorkerGraphView,
)
from repro.distributed.comm import (
    BYTES_PER_EDGE,
    BYTES_PER_EDGE_WEIGHT,
    BYTES_PER_NODE_ID,
    FEATURE_ITEMSIZE,
)
from repro.partition import partition_graph
from repro.sparsify import sparsify_partitions


@pytest.fixture
def setup(featured_graph):
    rng = np.random.default_rng(3)
    pg = partition_graph(featured_graph, 3, "metis", rng=rng, mirror=True)
    sparsified = sparsify_partitions(pg, alpha=0.2, rng=rng)
    return featured_graph, pg, sparsified


class TestRemoteGraphStore:
    def test_serves_exact_neighbors(self, setup):
        graph, _, _ = setup
        store = RemoteGraphStore(graph)
        meter = CommMeter()
        nodes = np.array([0, 5])
        nbrs, _, offsets = store.neighbors_batch(nodes, meter)
        assert sorted(nbrs[offsets[0]:offsets[1]].tolist()) == \
            sorted(graph.neighbors(0).tolist())

    def test_charges_structure(self, setup):
        graph, _, _ = setup
        store = RemoteGraphStore(graph)
        meter = CommMeter()
        nodes = np.array([0, 5, 9])
        nbrs, _, _ = store.neighbors_batch(nodes, meter)
        assert meter.current.structure_bytes == \
            nbrs.size * BYTES_PER_EDGE + 3 * BYTES_PER_NODE_ID

    def test_fetch_features_charges(self, setup):
        graph, _, _ = setup
        store = RemoteGraphStore(graph)
        meter = CommMeter()
        feats = store.fetch_features(np.array([1, 2]), meter)
        assert feats.shape == (2, graph.feature_dim)
        assert meter.current.feature_bytes == \
            2 * graph.feature_dim * FEATURE_ITEMSIZE

    def test_none_meter_tolerated(self, setup):
        graph, _, _ = setup
        store = RemoteGraphStore(graph)
        store.neighbors_batch(np.array([0]), None)
        store.fetch_features(np.array([0]), None)


class TestSparsifiedRemoteStore:
    def test_answers_from_sparsified_copy(self, setup):
        graph, pg, sparsified = setup
        store = SparsifiedRemoteStore(graph, sparsified.graphs,
                                      pg.assignment)
        node = int(pg.owned_nodes(1)[0])
        nbrs, weights, offsets = store.neighbors_batch(
            np.array([node]), None)
        expected = sparsified.graphs[1].neighbors(node)
        assert sorted(nbrs.tolist()) == sorted(expected.tolist())

    def test_weighted_charging(self, setup):
        graph, pg, sparsified = setup
        store = SparsifiedRemoteStore(graph, sparsified.graphs,
                                      pg.assignment)
        meter = CommMeter()
        nodes = pg.owned_nodes(0)[:4]
        nbrs, _, _ = store.neighbors_batch(nodes, meter)
        assert meter.current.structure_bytes == \
            nbrs.size * (BYTES_PER_EDGE + BYTES_PER_EDGE_WEIGHT) + \
            4 * BYTES_PER_NODE_ID

    def test_mixed_partition_query(self, setup):
        graph, pg, sparsified = setup
        store = SparsifiedRemoteStore(graph, sparsified.graphs,
                                      pg.assignment)
        nodes = np.array([int(pg.owned_nodes(0)[0]),
                          int(pg.owned_nodes(2)[0]),
                          int(pg.owned_nodes(1)[0])])
        nbrs, _, offsets = store.neighbors_batch(nodes, None)
        for i, node in enumerate(nodes):
            owner = pg.assignment[node]
            expected = sparsified.graphs[owner].neighbors(int(node))
            assert sorted(nbrs[offsets[i]:offsets[i + 1]].tolist()) == \
                sorted(expected.tolist())

    def test_features_exact_not_sparsified(self, setup):
        graph, pg, sparsified = setup
        store = SparsifiedRemoteStore(graph, sparsified.graphs,
                                      pg.assignment)
        feats = store.fetch_features(np.array([3]), None)
        assert np.allclose(feats, graph.features[[3]])

    def test_owner_without_a_sparsified_copy_rejected(self, setup):
        graph, pg, sparsified = setup
        owners = pg.node_owner.copy()
        owners[0] = len(sparsified.graphs)
        with pytest.raises(ValueError, match="ids in"):
            SparsifiedRemoteStore(graph, sparsified.graphs, owners)


class TestWorkerGraphView:
    def test_local_owned_query_free(self, setup):
        graph, pg, _ = setup
        meter = CommMeter()
        view = WorkerGraphView(pg, 0, remote=RemoteGraphStore(graph),
                               meter=meter)
        owned = pg.owned_nodes(0)[:5]
        view.neighbors_batch(owned)
        assert meter.current.structure_bytes == 0

    def test_owned_full_neighbors_when_mirrored(self, setup):
        graph, pg, _ = setup
        view = WorkerGraphView(pg, 0, remote=None)
        node = int(pg.owned_nodes(0)[0])
        nbrs, _, _ = view.neighbors_batch(np.array([node]))
        assert sorted(nbrs.tolist()) == sorted(graph.neighbors(node).tolist())

    def test_remote_query_charged(self, setup):
        graph, pg, _ = setup
        meter = CommMeter()
        view = WorkerGraphView(pg, 0, remote=RemoteGraphStore(graph),
                               meter=meter)
        foreign = pg.owned_nodes(1)[:3]
        view.neighbors_batch(foreign)
        assert meter.current.structure_bytes > 0

    def test_mixed_query_matches_sources(self, setup):
        graph, pg, _ = setup
        view = WorkerGraphView(pg, 0, remote=RemoteGraphStore(graph),
                               meter=CommMeter())
        nodes = np.array([int(pg.owned_nodes(0)[0]),
                          int(pg.owned_nodes(1)[0])])
        nbrs, _, offsets = view.neighbors_batch(nodes)
        # Both answered with exact full-graph neighborhoods here
        # (owned mirrored = full; foreign via full remote store).
        for i, node in enumerate(nodes):
            assert sorted(nbrs[offsets[i]:offsets[i + 1]].tolist()) == \
                sorted(graph.neighbors(int(node)).tolist())

    def test_no_remote_foreign_nodes_use_local_edges_only(self, setup):
        graph, pg, _ = setup
        view = WorkerGraphView(pg, 0, remote=None)
        foreign = int(pg.owned_nodes(1)[0])
        nbrs, _, _ = view.neighbors_batch(np.array([foreign]))
        local_nbrs = pg.local_graph(0).neighbors(foreign)
        assert sorted(nbrs.tolist()) == sorted(local_nbrs.tolist())

    def test_feature_fetch_remote_charged_once(self, setup):
        graph, pg, _ = setup
        meter = CommMeter()
        view = WorkerGraphView(pg, 0, remote=RemoteGraphStore(graph),
                               meter=meter)
        local = pg.owned_nodes(0)[:2]
        foreign = pg.owned_nodes(1)[:3]
        # exclude mirrored halo nodes from 'foreign'
        foreign = foreign[~pg.has_feature_locally(0, foreign)]
        nodes = np.concatenate([local, foreign])
        view.fetch_features(nodes)
        assert meter.current.feature_bytes == \
            foreign.size * graph.feature_dim * FEATURE_ITEMSIZE

    def test_feature_fetch_no_remote_zero_fills(self, setup):
        graph, pg, _ = setup
        view = WorkerGraphView(pg, 0, remote=None)
        foreign = pg.owned_nodes(1)
        foreign = foreign[~pg.has_feature_locally(0, foreign)][:2]
        feats = view.fetch_features(foreign)
        assert np.allclose(feats, 0.0)

    def test_candidate_sets(self, setup):
        graph, pg, _ = setup
        view = WorkerGraphView(pg, 1, remote=None)
        assert np.array_equal(view.local_candidate_nodes(),
                              pg.owned_nodes(1))
        assert view.global_candidate_nodes().size == graph.num_nodes

    def test_features_required(self, setup):
        graph, pg, _ = setup
        pg_nofeat = partition_graph(graph.with_features(None), 2, "metis",
                                    rng=np.random.default_rng(0))
        view = WorkerGraphView(pg_nofeat, 0)
        with pytest.raises(ValueError):
            view.fetch_features(np.array([0]))
