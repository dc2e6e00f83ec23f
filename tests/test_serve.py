"""Serving subsystem: artifact integrity, determinism, scheduling.

The headline contract under test: a serving run is bit-identical —
same :meth:`ServeReport.digest` — across the serial, thread and
process backends, including under a shard-outage fault plan.  Around
it: artifact export/checksum behavior, micro-batch scheduling, load
shedding, cache accounting and top-k semantics.
"""

from __future__ import annotations

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
        model.eval()
        try:
            expected = model.embed(comp,
                                   master.features[comp.input_nodes]).data
        finally:
            model.train()
        np.testing.assert_array_equal(artifact.embedding_table()[nodes],
                                      expected)

    def test_rebuilt_predictor_matches_trained_decoder(self, served):
        session, artifact, _, _ = served
        trained = session._trainer.workers[0].model.predictor
        rebuilt = artifact.build_predictor()
        table = artifact.embedding_table()
        h_u, h_v = Tensor(table[:20]), Tensor(table[20:40])
        np.testing.assert_array_equal(rebuilt(h_u, h_v).data,
                                      trained(h_u, h_v).data)

    def test_export_requires_training(self, served):
        _, _, _, graph = served
        fresh = Session(graph).partition(2)
        with pytest.raises(RuntimeError, match="train"):
            fresh.export()


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
            expected = predictor(Tensor(table[[req.u]]),
                                 Tensor(table[[req.v]])).data[0]
            assert outcome.score == expected  # bit-equal, batched or not

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
