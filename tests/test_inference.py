"""Distributed inference: routing, consistency and comm accounting."""

import numpy as np
import pytest

from repro.distributed import (
    DistributedScorer,
    RemoteGraphStore,
    SparsifiedRemoteStore,
)
from repro.eval import score_pairs
from repro.nn import build_model
from repro.partition import partition_graph
from repro.sparsify import sparsify_partitions

from conftest import recorded_nodes, taped_forward


@pytest.fixture(scope="module")
def setting():
    from repro.graph import synthetic_lp_graph
    rng = np.random.default_rng(5)
    graph = synthetic_lp_graph(num_nodes=200, target_edges=700,
                               feature_dim=16, num_communities=4, rng=rng)
    pg_mirror = partition_graph(graph, 3, "metis",
                                rng=np.random.default_rng(1), mirror=True)
    model = build_model("sage", 16, 12, num_layers=2, seed=0)
    return graph, pg_mirror, model


class TestRouting:
    def test_pairs_routed_by_source_owner(self, setting):
        graph, pg, model = setting
        scorer = DistributedScorer(model, pg,
                                   remote=RemoteGraphStore(graph),
                                   fanouts=(-1, -1))
        pairs = graph.edge_list()[:30]
        result = scorer.score(pairs)
        assert sum(result.pairs_per_worker) == 30
        owners = pg.assignment[pairs[:, 0]]
        for part in range(3):
            assert result.pairs_per_worker[part] == \
                int((owners == part).sum())

    def test_all_pairs_scored(self, setting):
        graph, pg, model = setting
        scorer = DistributedScorer(model, pg,
                                   remote=RemoteGraphStore(graph),
                                   fanouts=(-1, -1))
        pairs = graph.edge_list()[:17]
        result = scorer.score(pairs)
        assert result.scores.shape == (17,)
        assert np.all(np.isfinite(result.scores))


class TestConsistency:
    def test_matches_centralized_full_neighbor_scores(self, setting):
        """Full-neighbor distributed inference with a complete store is
        byte-for-byte the centralized computation."""
        graph, pg, model = setting
        pairs = graph.edge_list()[:40]
        scorer = DistributedScorer(model, pg,
                                   remote=RemoteGraphStore(graph),
                                   fanouts=(-1, -1))
        distributed = scorer.score(pairs).scores
        centralized = score_pairs(model, graph, pairs, fanouts=(-1, -1),
                                  rng=np.random.default_rng(0))
        np.testing.assert_allclose(distributed, centralized, atol=1e-9)

    def test_sparsified_store_changes_remote_scores_only_slightly(
            self, setting):
        graph, pg, model = setting
        sparsified = sparsify_partitions(pg, alpha=0.3,
                                         rng=np.random.default_rng(2))
        store = SparsifiedRemoteStore(graph, sparsified.graphs,
                                      pg.assignment)
        scorer = DistributedScorer(model, pg, remote=store,
                                   fanouts=(-1, -1))
        full_scorer = DistributedScorer(model, pg,
                                        remote=RemoteGraphStore(graph),
                                        fanouts=(-1, -1))
        pairs = graph.edge_list()[:40]
        a = scorer.score(pairs).scores
        b = full_scorer.score(pairs).scores
        # correlated even though remote neighborhoods are sparsified
        assert np.corrcoef(a, b)[0, 1] > 0.8


@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("fanouts", [(5, 5), (-1, -1)],
                         ids=["sampled", "memo"])
def test_shards_record_no_tape_and_keep_the_bits(setting, backend,
                                                 fanouts):
    """The scope is entered inside each shard, so it holds on the
    worker threads too; the scores equal the taped forward's."""
    graph, pg, model = setting
    pairs = graph.edge_list()[:40]

    def scores():
        scorer = DistributedScorer(model, pg,
                                   remote=RemoteGraphStore(graph),
                                   fanouts=fanouts, backend=backend,
                                   batch_size=16,
                                   rng=np.random.default_rng(3))
        scorer.score(pairs)   # the second call reads the memo
        return scorer.score(pairs).scores

    with recorded_nodes() as nodes:
        free = scores()
    assert nodes == [0]
    with taped_forward():
        taped = scores()
    assert free.tobytes() == taped.tobytes()


class TestInferenceComm:
    def test_local_pairs_free_when_mirrored(self, setting):
        """A mirrored worker scoring its own nodes' pairs with 1-hop
        model needs nothing remote... but 2-hop may; verify the no-store
        case charges nothing at all."""
        graph, pg, model = setting
        scorer = DistributedScorer(model, pg, remote=None,
                                   fanouts=(-1, -1))
        pairs = graph.edge_list()[:20]
        result = scorer.score(pairs)
        assert result.comm.graph_data_bytes == 0

    def test_remote_store_charged(self, setting):
        graph, pg, model = setting
        scorer = DistributedScorer(model, pg,
                                   remote=RemoteGraphStore(graph),
                                   fanouts=(-1, -1))
        pairs = graph.edge_list()[:40]
        result = scorer.score(pairs)
        assert result.comm.graph_data_bytes > 0

    def test_sparsified_store_cheaper(self, setting):
        graph, pg, model = setting
        sparsified = sparsify_partitions(pg, alpha=0.15,
                                         rng=np.random.default_rng(2))
        cheap = DistributedScorer(
            model, pg,
            remote=SparsifiedRemoteStore(graph, sparsified.graphs,
                                         pg.assignment),
            fanouts=(-1, -1))
        costly = DistributedScorer(model, pg,
                                   remote=RemoteGraphStore(graph),
                                   fanouts=(-1, -1))
        pairs = graph.edge_list()[:60]
        assert cheap.score(pairs).comm.graph_data_bytes < \
            costly.score(pairs).comm.graph_data_bytes


class TestEmbedMemo:
    def test_repeat_scoring_hits_memo_not_encoder(self, setting):
        """Second identical score() call must reuse every memoized
        embedding: zero fresh computes, nonzero memo hits."""
        graph, pg, model = setting
        scorer = DistributedScorer(model, pg, remote=None,
                                   fanouts=(-1, -1))
        pairs = graph.edge_list()[:30]
        first = scorer.score(pairs)
        computed = scorer.stats["embed_computed"]
        assert computed > 0
        second = scorer.score(pairs)
        assert scorer.stats["embed_computed"] == computed
        assert scorer.stats["embed_memo_hits"] >= computed
        np.testing.assert_array_equal(first.scores, second.scores)

    def test_weight_change_invalidates_memo(self, setting):
        graph, pg, model = setting
        scorer = DistributedScorer(model, pg, remote=None,
                                   fanouts=(-1, -1))
        pairs = graph.edge_list()[:30]
        scorer.score(pairs)
        computed = scorer.stats["embed_computed"]
        param = model.parameters()[0]
        param.data = param.data + 0.25
        try:
            scorer.score(pairs)
        finally:
            param.data = param.data - 0.25
        # The fingerprint changed, so everything recomputed.
        assert scorer.stats["embed_computed"] == 2 * computed

    def test_sampled_fanouts_disable_memo(self, setting):
        """A stochastic neighborhood cannot be memoized."""
        graph, pg, model = setting
        scorer = DistributedScorer(model, pg, remote=None,
                                   fanouts=(5, 5))
        pairs = graph.edge_list()[:30]
        scorer.score(pairs)
        scorer.score(pairs)
        assert scorer.stats["embed_memo_hits"] == 0

    def test_empty_pairs_graceful(self, setting):
        graph, pg, model = setting
        scorer = DistributedScorer(model, pg, remote=None,
                                   fanouts=(-1, -1))
        result = scorer.score(np.empty((0, 2), dtype=np.int64))
        assert result.scores.shape == (0,)
        assert sum(result.pairs_per_worker) == 0
        assert result.rerouted_pairs == 0
        assert isinstance(result.summary(), str)
