"""Serving subsystem: artifact integrity, determinism, scheduling.

The headline contract under test: a serving run is bit-identical —
same :meth:`ServeReport.digest` — across the serial, thread and
process backends, including under a shard-outage fault plan.  Around
it: artifact export/checksum behavior, micro-batch scheduling, load
shedding, cache accounting and top-k semantics.
"""

from __future__ import annotations

import dataclasses
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.distributed.store import RemoteGraphStore
from repro.faults import ClusterDeadError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.graph import synthetic_lp_graph
from repro.nn.tensor import Tensor
from repro.obs import RunObserver
from repro.serve import (
    ClosedLoopWorkload,
    OpenLoopWorkload,
    ScoreRequest,
    ServableArtifact,
    ServeFaultSchedule,
    ServingCluster,
    TopKRequest,
    export_servable,
    synthetic_requests,
)
from repro.serve.requests import RequestOutcome

from conftest import (
    assert_one_table,
    decode_error_bound,
    recorded_nodes,
    taped_forward,
)


@pytest.fixture(scope="module")
def served():
    """Train once, export once: (session, artifact, store, graph)."""
    rng = np.random.default_rng(41)
    graph = synthetic_lp_graph(num_nodes=150, target_edges=520,
                               feature_dim=16, num_communities=4, rng=rng)
    session = (Session(graph).partition(3).framework("psgd_pa")
               .scale("smoke").configure(seed=3).backend("serial"))
    session.train()
    artifact = session.export()
    store = RemoteGraphStore(session._trainer.partitioned.full)
    return session, artifact, store, graph


def _cluster(artifact, store=None, **kw):
    kw.setdefault("max_batch", 4)
    kw.setdefault("max_delay_s", 1e-3)
    kw.setdefault("max_queue", 32)
    return ServingCluster(artifact, store=store, **kw)


class TestArtifact:
    def test_roundtrip_preserves_everything(self, served, tmp_path):
        _, artifact, _, _ = served
        path = tmp_path / "model.servable.npz"
        checksum = artifact.save(path)
        loaded = ServableArtifact.load(path)
        assert loaded.checksum() == checksum == artifact.checksum()
        assert loaded.model_version == artifact.model_version
        assert loaded.predictor_kind == artifact.predictor_kind
        np.testing.assert_array_equal(loaded.assignment,
                                      artifact.assignment)
        np.testing.assert_array_equal(loaded.embedding_table(),
                                      artifact.embedding_table())

    def test_tampered_artifact_fails_checksum(self, served, tmp_path):
        from repro.nn.serialize import load_state_dict, save_state_dict

        _, artifact, _, _ = served
        path = tmp_path / "tampered.npz"
        artifact.save(path)
        state = load_state_dict(path)
        key = next(k for k in state if k.startswith("shard."))
        state[key] = state[key] + 1e-3  # corrupt one block
        save_state_dict(state, path)
        with pytest.raises(ValueError, match="checksum"):
            ServableArtifact.load(path)

    def test_missing_payload_key_is_a_value_error(self, served, tmp_path):
        """Drop a block and re-stamp the checksum: integrity passes,
        so the loader itself must name the missing key."""
        from repro.nn.serialize import (load_state_dict, save_state_dict,
                                        state_fingerprint)

        _, artifact, _, _ = served
        path = tmp_path / "partial.npz"
        artifact.save(path)
        state = load_state_dict(path)
        del state["shard.0001.embed"], state["meta.checksum"]
        state["meta.checksum"] = np.array(state_fingerprint(state))
        save_state_dict(state, path)
        with pytest.raises(ValueError, match="shard.0001.embed"):
            ServableArtifact.load(path)

    def test_reordered_shard_block_is_a_value_error(self, tmp_path):
        """Reverse one shard's nodes and rows together and re-stamp the
        checksum: the table would be intact, but the blocks cut from it
        on save could not reproduce the file's checksum."""
        from repro.nn.serialize import (load_state_dict, save_state_dict,
                                        state_fingerprint)

        path = Path(__file__).parent / "data" / "serve_artifact_v1.npz"
        state = load_state_dict(path)
        del state["meta.checksum"]
        for key in ("shard.0000.nodes", "shard.0000.embed"):
            state[key] = state[key][::-1].copy()
        state["meta.checksum"] = np.array(state_fingerprint(state))
        save_state_dict(state, tmp_path / "reordered.npz")
        with pytest.raises(ValueError, match="shard.0000.nodes"):
            ServableArtifact.load(tmp_path / "reordered.npz")

    def test_truncated_file_is_a_value_error(self, served, tmp_path):
        _, artifact, _, _ = served
        path = tmp_path / "truncated.npz"
        artifact.save(path)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(ValueError, match="truncated.npz"):
            ServableArtifact.load(path)

    def test_bit_flips_raise_value_error_or_load_intact(self, served,
                                                        tmp_path):
        """300 seeded single-bit flips of a saved artifact: each raises
        ``ValueError`` naming the file, or (a flip in zip bookkeeping no
        reader checks) loads a payload with the original checksum."""
        _, artifact, _, _ = served
        path = tmp_path / "flipped.npz"
        want = artifact.save(path)
        raw = path.read_bytes()
        bits = np.random.default_rng(0).choice(len(raw) * 8, size=300,
                                               replace=False)
        for bit in bits:
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                loaded = ServableArtifact.load(path)
            except ValueError as exc:
                assert str(path) in str(exc), (bit, exc)
            else:
                assert loaded.checksum() == want, bit

    def test_two_copy_era_file_loads_and_resaves_unchanged(self,
                                                           tmp_path):
        """``data/serve_artifact_v1.npz`` was saved by the artifact that
        kept per-shard copies beside its table: 50 nodes, 2 shards
        (``arange(50) % 2``), table ``default_rng(43).standard_normal((50,
        8))``, a 2-layer MLP decoder.  The one-table artifact reads it
        back to the same table and checksum, and writes that checksum
        again."""
        path = Path(__file__).parent / "data" / "serve_artifact_v1.npz"
        want = ("065441c9008508e99d68303a95b89123"
                "a3b8f68b68ae18909d95a35f417bde5c")
        artifact = ServableArtifact.load(path)
        assert artifact.checksum() == want
        assert artifact.save(tmp_path / "again.npz") == want
        assert ServableArtifact.load(tmp_path / "again.npz").checksum() \
            == want
        table = np.random.default_rng(43).standard_normal((50, 8))
        assert artifact.embedding_table().tobytes() == table.tobytes()
        assert_one_table(artifact)

    def test_two_copy_era_file_serves(self):
        """The float64 file serves in float64, through its decoder's
        hidden width 8 zero-padded up to the panel: each top-k score is
        its pair score, bit for bit."""
        path = Path(__file__).parent / "data" / "serve_artifact_v1.npz"
        artifact = ServableArtifact.load(path)
        assert artifact.embedding_table().dtype == np.float64
        with _cluster(artifact) as cluster:
            top = cluster.serve(ClosedLoopWorkload(
                [TopKRequest(node=3, k=10)], num_clients=1)).outcomes[0]
            pairs = cluster.serve(ClosedLoopWorkload(
                [ScoreRequest(u=3, v=int(c)) for c in top.topk_nodes],
                num_clients=2))
        assert top.topk_scores.dtype == np.float64
        assert (top.topk_scores.tobytes()
                == np.array([o.score for o in pairs.outcomes]).tobytes())

    def test_export_is_deterministic(self, served):
        session, artifact, _, _ = served
        again = session.export()
        assert again.model_version == artifact.model_version
        assert again.checksum() == artifact.checksum()

    def test_embeddings_match_full_neighbor_encoder(self, served):
        """The table rows are exactly the centralized full-neighbor
        embeddings of the trained model on the master graph (the
        normalized ``partitioned.full``, which is what serving ties
        its scores to)."""
        from repro.sampling.neighbor import NeighborSampler

        session, artifact, _, _ = served
        model = session._trainer.workers[0].model
        master = session._trainer.partitioned.full
        nodes = np.array([0, 7, 42, 149], dtype=np.int64)
        sampler = NeighborSampler([-1] * model.encoder.num_layers,
                                  rng=np.random.default_rng(0))
        comp = sampler.sample(master, nodes)
        expected = model.embed(comp, master.features[comp.input_nodes]).data
        np.testing.assert_array_equal(artifact.embedding_table()[nodes],
                                      expected.astype(np.float32))

    def test_export_serves_float32(self, served):
        """The table is the float64 full-neighbour table rounded to
        float32 and nothing else; the decoder weights are the trained
        ones rounded to float32."""
        from repro.eval.evaluator import materialize_embeddings

        session, artifact, _, _ = served
        model = session._trainer.workers[0].model
        table = materialize_embeddings(model,
                                       session._trainer.partitioned.full)
        assert artifact.embedding_table().dtype == np.float32
        assert (artifact.embedding_table().tobytes()
                == table.astype(np.float32).tobytes())
        trained = model.predictor.state_dict()
        assert set(artifact.predictor_state) == set(trained)
        for key, value in artifact.predictor_state.items():
            assert value.dtype == np.float32
            assert value.tobytes() == trained[key].astype(np.float32).tobytes()

    def test_rebuilt_predictor_matches_trained_decoder(self, served):
        """The rebuilt decoder is the trained one: training and the
        artifact both hold float32 weights, so they are equal bit for
        bit, and so are both ``forward`` calls on the served table."""
        session, artifact, _, _ = served
        trained = session._trainer.workers[0].model.predictor
        rebuilt = artifact.build_predictor()
        for key, value in rebuilt.state_dict().items():
            assert value.dtype == np.float32
            assert value.tobytes() == trained.state_dict()[key].tobytes()
        table = artifact.embedding_table()
        h_u, h_v = table[:20], table[20:40]
        assert (rebuilt(Tensor(h_u), Tensor(h_v)).data.tobytes()
                == trained(Tensor(h_u), Tensor(h_v)).data.tobytes())

    def test_export_requires_training(self, served):
        _, _, _, graph = served
        fresh = Session(graph).partition(2)
        with pytest.raises(RuntimeError, match="train"):
            fresh.export()


class TestArtifactMemo:
    """An artifact holds its table once and builds its decoder once;
    every consumer shares them, and the decoder is not part of what
    the artifact is."""

    @pytest.fixture
    def loaded(self, served, tmp_path):
        _, artifact, _, _ = served
        artifact.save(tmp_path / "a.npz")
        return artifact, ServableArtifact.load(tmp_path / "a.npz")

    def test_built_once_and_shared(self, loaded, monkeypatch):
        artifact, fresh = loaded
        built = []
        decoder = ServableArtifact._decoder
        monkeypatch.setattr(ServableArtifact, "_decoder",
                            lambda self: built.append(1) or decoder(self))
        table = fresh.embedding_table()
        assert fresh.embedding_table() is table
        assert not table.flags.writeable
        assert table.tobytes() == artifact.embedding_table().tobytes()
        predictor = fresh.build_predictor()
        assert fresh.build_predictor() is predictor
        cluster = _cluster(fresh)
        assert cluster.artifact is fresh
        cluster.close()
        assert built == [1]

    def test_export_adopts_its_table(self, served):
        _, artifact, _, _ = served
        assert_one_table(artifact)

    def test_load_holds_one_table(self, loaded):
        _, fresh = loaded
        assert_one_table(fresh)

    def test_memo_is_not_payload_checksum_or_equality(self, loaded,
                                                      tmp_path):
        artifact, fresh = loaded
        checksum = fresh.checksum()
        fresh.build_predictor()
        assert fresh.checksum() == checksum == artifact.checksum()
        assert fresh.save(tmp_path / "b.npz") == checksum
        compared = {f.name for f in dataclasses.fields(ServableArtifact)
                    if f.compare}
        assert "_predictor" not in compared
        assert not any(key.startswith("_") for key in fresh._payload())


class TestBackendDeterminism:
    BACKENDS = ("serial", "thread", "process")

    def _digest(self, artifact, store, backend, plan=None):
        requests = synthetic_requests(60, 150, seed=11, k=5)
        cluster = _cluster(artifact, store, backend=backend, plan=plan)
        with cluster:
            report = cluster.serve(
                OpenLoopWorkload(requests, rate_rps=3000.0, seed=12))
        return report

    def test_digest_identical_across_backends(self, served):
        _, artifact, store, _ = served
        reports = [self._digest(artifact, store, b) for b in self.BACKENDS]
        digests = {r.digest() for r in reports}
        assert len(digests) == 1
        assert all(r.counters == reports[0].counters for r in reports)

    def test_digest_identical_under_shard_outage(self, served):
        _, artifact, store, _ = served
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", epoch=0, round=15, worker=1),
            FaultEvent(kind="store_outage", epoch=0, round=30, worker=2,
                       rounds=10),
        ))
        reports = [self._digest(artifact, store, b, plan=plan)
                   for b in self.BACKENDS]
        assert len({r.digest() for r in reports}) == 1
        assert reports[0].counters["rerouted"] > 0
        # The outage visibly changes the run relative to fault-free.
        assert reports[0].digest() != self._digest(
            artifact, store, "serial").digest()

    def test_all_shards_down_raises(self, served):
        _, artifact, store, _ = served
        plan = FaultPlan(events=tuple(
            FaultEvent(kind="crash", epoch=0, round=0, worker=w)
            for w in range(3)))
        cluster = _cluster(artifact, store, plan=plan)
        requests = synthetic_requests(10, 150, seed=1)
        with pytest.raises(ClusterDeadError):
            cluster.serve(OpenLoopWorkload(requests, rate_rps=100.0,
                                           seed=2))


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_pair_decode_records_no_tape_and_keeps_the_bits(served, backend):
    _, artifact, store, _ = served

    def digest():
        requests = synthetic_requests(40, 150, seed=21, topk_fraction=0.0)
        with _cluster(artifact, store, backend=backend) as cluster:
            return cluster.serve(OpenLoopWorkload(
                requests, rate_rps=3000.0, seed=22)).digest()

    with recorded_nodes() as nodes:
        free = digest()
    assert nodes == [0]
    # The decode builds no ``Tensor`` at all: even a forced tape stays
    # empty.
    with taped_forward(), recorded_nodes() as nodes:
        taped = digest()
    assert nodes == [0]
    assert free == taped


def test_request_records_survive_a_pickle_round_trip():
    """Frozen + slotted dataclasses are a known pickling edge case; the
    process backends ship all three across the pipe."""
    outcome = RequestOutcome(index=3, request=TopKRequest(node=5, k=2),
                             status="ok", shard=1, score=0.25,
                             topk_nodes=np.array([1, 2]))
    for record in (ScoreRequest(u=1, v=2), TopKRequest(node=5, k=2),
                   outcome):
        assert not hasattr(record, "__dict__")
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        if record is outcome:
            assert copy.request == outcome.request
            assert copy.topk_nodes.tolist() == [1, 2]
            assert (copy.index, copy.status, copy.score) == (3, "ok", 0.25)
        else:
            assert copy == record and hash(copy) == hash(record)


class TestServingSemantics:
    def test_pairwise_scores_match_decoder_on_table(self, served):
        _, artifact, store, _ = served
        requests = [ScoreRequest(u=int(u), v=int(v))
                    for u, v in [(0, 5), (10, 140), (77, 3), (9, 9)]]
        cluster = _cluster(artifact, store)
        report = cluster.serve(ClosedLoopWorkload(requests, num_clients=2))
        table = artifact.embedding_table()
        predictor = artifact.build_predictor()
        for outcome in report.completed():
            req = outcome.request
            expected = predictor.decode(table, [req.u], [req.v])[0]
            assert outcome.score == expected  # bit-equal, batched or not

    def test_topk_scores_equal_pair_scores(self, served):
        """Top-k purity: each of a query's top-50 scores equals, bit for
        bit, the score a pair request of the same ``(node, candidate)``
        gets in another flush."""
        _, artifact, store, _ = served
        for node in (0, 42, 149):
            with _cluster(artifact, store) as cluster:
                top = cluster.serve(ClosedLoopWorkload(
                    [TopKRequest(node=node, k=50)], num_clients=1)).outcomes[0]
                pairs = cluster.serve(ClosedLoopWorkload(
                    [ScoreRequest(u=node, v=int(c))
                     for c in top.topk_nodes], num_clients=3))
            assert len(top.topk_nodes) == 50
            scores = [o.score for o in pairs.outcomes]
            assert (np.asarray(top.topk_scores, np.float64).tobytes()
                    == np.array(scores).tobytes())

    def test_served_scores_lie_within_the_float32_bound(self, served):
        """Served scores against the trained model's taped
        ``score_pairs`` on its full-neighbour table: within
        :func:`decode_error_bound` (2^-24 unit roundoff)."""
        from repro.eval.evaluator import materialize_embeddings

        session, artifact, store, _ = served
        model = session._trainer.workers[0].model
        table = materialize_embeddings(model,
                                       session._trainer.partitioned.full)
        pairs = np.random.default_rng(5).integers(0, 150, size=(80, 2))
        with _cluster(artifact, store) as cluster:
            report = cluster.serve(ClosedLoopWorkload(
                [ScoreRequest(u=int(u), v=int(v)) for u, v in pairs],
                num_clients=4))
        got = np.array([o.score for o in report.outcomes])
        want = model.score_pairs(Tensor(table), pairs[:, 0],
                                 pairs[:, 1]).data
        bound = decode_error_bound(model.predictor, table[pairs[:, 0]],
                                   table[pairs[:, 1]], np.float32)
        assert np.all(np.abs(got - want) <= bound)

    def test_topk_excludes_self_and_neighbors(self, served):
        _, artifact, store, _ = served
        node, k = 12, 7
        cluster = _cluster(artifact, store)
        report = cluster.serve(ClosedLoopWorkload(
            [TopKRequest(node=node, k=k)], num_clients=1))
        (outcome,) = report.completed()
        assert outcome.topk_nodes.shape == (k,)
        assert node not in outcome.topk_nodes
        nbrs, _, _ = store.neighbors_batch(
            np.array([node], dtype=np.int64), None)
        assert not set(outcome.topk_nodes).intersection(set(nbrs))
        # Deterministic order: descending score.
        assert np.all(np.diff(outcome.topk_scores) <= 0)

    def test_topk_without_store_excludes_only_self(self, served):
        _, artifact, _, _ = served
        cluster = _cluster(artifact, store=None)
        report = cluster.serve(ClosedLoopWorkload(
            [TopKRequest(node=3, k=149)], num_clients=1))
        (outcome,) = report.completed()
        # Every other node is a candidate.
        assert outcome.topk_nodes.shape == (149,)
        assert 3 not in outcome.topk_nodes

    def test_bounded_queue_sheds_load(self, served):
        _, artifact, store, _ = served
        requests = synthetic_requests(50, 150, seed=5, topk_fraction=0.0)
        cluster = _cluster(artifact, store, max_batch=1, max_queue=2)
        report = cluster.serve(
            OpenLoopWorkload(requests, rate_rps=1e8, seed=6))
        assert report.counters["shed"] > 0
        assert report.shed_rate() > 0
        shed = [o for o in report.outcomes if o.status == "shed"]
        assert shed and all(o.score is None for o in shed)
        # Shed + completed covers every admitted request.
        assert (report.counters["shed"] + report.counters["completed"]
                == len(report.outcomes))

    def test_micro_batching_batches(self, served):
        """Closed-loop burst at t=0 produces multi-request flushes."""
        _, artifact, store, _ = served
        requests = synthetic_requests(40, 150, seed=8, topk_fraction=0.0)
        cluster = _cluster(artifact, store, max_batch=8)
        report = cluster.serve(ClosedLoopWorkload(requests, num_clients=16))
        assert report.counters["flushes"] < report.counters["completed"]

    def test_embed_cache_hits_on_repeated_pairs(self, served):
        _, artifact, store, _ = served
        assignment = artifact.assignment
        u = 0
        v = int(np.flatnonzero(assignment != assignment[0])[0])
        requests = [ScoreRequest(u=u, v=v)] * 10
        cluster = _cluster(artifact, store, max_batch=1)
        report = cluster.serve(ClosedLoopWorkload(requests, num_clients=1))
        assert report.counters["embed_cache_hits"] > 0
        assert report.counters["embed_cache_misses"] > 0
        assert 0.0 < report.cache_hit_rate() < 1.0

    def test_straggle_event_delays_flush(self, served):
        _, artifact, store, _ = served
        delay = 0.05
        plan = FaultPlan(events=tuple(
            FaultEvent(kind="straggle", epoch=0, round=0, worker=w,
                       delay_s=delay)
            for w in range(3)))
        requests = synthetic_requests(20, 150, seed=9, topk_fraction=0.0)
        base = _cluster(artifact, store).serve(
            OpenLoopWorkload(requests, rate_rps=2000.0, seed=10))
        slow = _cluster(artifact, store, plan=plan).serve(
            OpenLoopWorkload(requests, rate_rps=2000.0, seed=10))
        assert (slow.latencies_s().max()
                >= base.latencies_s().max() + delay * 0.99)

    def test_router_sync_is_skipped_without_outage_windows(self):
        """A plan with no crash/store_outage never downs a shard, so
        admission must not scan for one (``object()`` has no router
        methods to call)."""
        plan = FaultPlan(events=(FaultEvent(
            kind="straggle", epoch=0, round=0, worker=1, delay_s=0.1),))
        for schedule in (ServeFaultSchedule(plan, 3),
                         ServeFaultSchedule(None, 3)):
            schedule.sync_router(object(), 5)

    def test_empty_workload_yields_empty_report(self, served):
        _, artifact, store, _ = served
        report = _cluster(artifact, store).serve(
            ClosedLoopWorkload([], num_clients=1))
        assert report.outcomes == []
        assert report.throughput_rps() == 0.0
        assert isinstance(report.digest(), str)
        assert "requests" in report.summary()

    def test_closed_cluster_refuses_serve(self, served):
        _, artifact, _, _ = served
        cluster = _cluster(artifact)
        cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            cluster.serve(ClosedLoopWorkload([], num_clients=1))


class TestMalformedRequests:
    """A bad request fails at admission with a typed error (node -1
    used to be served as the last node, with status ``ok``)."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize(
        "bad", [ScoreRequest(-1, 3), ScoreRequest(3, 150), TopKRequest(-1),
                TopKRequest(150)],
        ids=["u-1", "v150", "topk-1", "topk150"])
    def test_out_of_range_node_raises_at_admission(self, served, backend,
                                                   bad):
        _, artifact, store, _ = served
        good = [ScoreRequest(0, 1), ScoreRequest(2, 3)]
        with _cluster(artifact, store, backend=backend) as cluster:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match="outside"):
                    cluster.serve(OpenLoopWorkload(
                        [good[0], bad, good[1]], rate_rps=1000.0, seed=1))
            report = cluster.serve(
                OpenLoopWorkload(good, rate_rps=1000.0, seed=1))
        assert [o.status for o in report.outcomes] == ["ok", "ok"]

    def test_topk_needs_a_positive_k(self):
        for k in (0, -3):
            with pytest.raises(ValueError, match="k >= 1"):
                TopKRequest(7, k=k)


class TestObservability:
    def test_serve_metrics_and_comm_mirror(self, served):
        _, artifact, store, _ = served
        observer = RunObserver()
        requests = synthetic_requests(30, 150, seed=14)
        cluster = _cluster(artifact, store, observer=observer)
        report = cluster.serve(OpenLoopWorkload(requests, rate_rps=2000.0,
                                                seed=15))
        metrics = observer.metrics
        assert (metrics.counter("serve.requests").value
                == len(report.outcomes))
        assert (metrics.counter("serve.flushes").value
                == report.counters["flushes"])
        assert (metrics.gauge("serve.queue_depth").value
                == report.counters["max_queue_depth"])
        # CommMeter mirror: observer counters equal the report ledger.
        assert (metrics.counter("comm.feature_bytes").value
                == report.comm.feature_bytes)
        assert (metrics.counter("comm.structure_bytes").value
                == report.comm.structure_bytes)
