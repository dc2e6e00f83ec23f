"""Distributed inference: routing, consistency and comm accounting."""

import copy
import warnings

import numpy as np
import pytest

from repro.distributed import (
    DistributedScorer,
    RemoteGraphStore,
    SparsifiedRemoteStore,
)
from repro.eval import materialize_embeddings, score_pairs
from repro.nn import build_model
from repro.nn.tensor import Tensor
from repro.partition import partition_graph
from repro.sparsify import sparsify_partitions

from conftest import recorded_nodes, taped_forward

BACKENDS = ["serial", "thread", "process"]


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
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_centralized_full_neighbor_scores(self, setting,
                                                      backend):
        """Full-neighbor distributed inference with a complete store is
        byte-for-byte the centralized computation: the rows of the
        centralized table, decoded shard by shard in the scorer's
        batches.  A decoder call's bits depend on how many rows it
        holds (BLAS rounds the last ``n mod 4`` rows of a GEMM
        differently), so one ``score_pairs`` decode over all pairs
        agrees only to rounding."""
        graph, pg, model = setting
        pairs = graph.edge_list()[:40]
        scorer = DistributedScorer(model, pg,
                                   remote=RemoteGraphStore(graph),
                                   fanouts=(-1, -1), batch_size=8,
                                   backend=backend)
        distributed = scorer.score(pairs).scores
        table = Tensor(materialize_embeddings(model, graph))
        owners = pg.node_owner[pairs[:, 0]]
        expected = np.empty(pairs.shape[0], distributed.dtype)
        for part in range(pg.num_parts):
            sel = np.flatnonzero(owners == part)
            for start in range(0, sel.size, 8):
                idx = sel[start:start + 8]
                expected[idx] = model.score_pairs(
                    table, pairs[idx, 0], pairs[idx, 1]).data
        assert distributed.tobytes() == expected.tobytes()
        # The rounding check at float64's allowance: the same weights
        # widened to float64, scored both ways.
        wide = copy.deepcopy(model).astype(np.float64)
        distributed = DistributedScorer(
            wide, pg, remote=RemoteGraphStore(graph), fanouts=(-1, -1),
            batch_size=8, backend=backend).score(pairs).scores
        centralized = score_pairs(wide, graph, pairs, fanouts=(-1, -1),
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
                         ids=["sampled", "full"])
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_neighbor_ledger_ignores_batch_size(self, setting,
                                                     backend):
        """Each shard embeds its endpoints in one message-flow graph,
        so a remote row is charged once per call however the pairs are
        batched (embedding per batch would charge 34 752 feature bytes
        at batch 16 here, 13 248 at 1 024)."""
        graph, pg, model = setting
        pairs = graph.edge_list()[:120]
        results = [
            DistributedScorer(model, pg, remote=RemoteGraphStore(graph),
                              fanouts=(-1, -1), batch_size=batch,
                              backend=backend).score(pairs)
            for batch in (16, 1024)]
        assert results[0].comm.to_dict() == results[1].comm.to_dict()
        assert results[0].comm.feature_bytes == 13248
        assert results[0].scores.tobytes() == results[1].scores.tobytes()


class TestEmbedMemo:
    def test_empty_pairs_graceful(self, setting):
        graph, pg, model = setting
        scorer = DistributedScorer(model, pg, remote=None,
                                   fanouts=(-1, -1))
        result = scorer.score(np.empty((0, 2), dtype=np.int64))
        assert result.scores.shape == (0,)
        assert sum(result.pairs_per_worker) == 0
        assert result.rerouted_pairs == 0
        assert isinstance(result.summary(), str)


class TestMalformedInput:
    """Bad queries fail with a typed error before any shard runs."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [-1, 200])
    def test_out_of_range_id_raises_and_downs_no_shard(self, setting,
                                                       backend, bad):
        graph, pg, model = setting
        scorer = DistributedScorer(model, pg,
                                   remote=RemoteGraphStore(graph),
                                   fanouts=(-1, -1), backend=backend)
        pairs = np.vstack([graph.edge_list()[:10], [[bad, 3]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="outside"):
                scorer.score(pairs)
        assert scorer.live_shards == [0, 1, 2]
        assert scorer.score(pairs[:10]).scores.shape == (10,)

    def test_fanouts_must_match_the_encoder_depth(self, setting):
        graph, pg, model = setting
        for fanouts in [(-1,), (5, 5, 5)]:
            with pytest.raises(ValueError, match="one fanout per"):
                DistributedScorer(model, pg, fanouts=fanouts)
