"""StreamDriver: cross-backend digests, faults, churn, resume."""

import json

import numpy as np
import pytest

from repro.checkpoint.store import CheckpointStore
from repro.eval import materialize_layers
from repro.faults import FaultEvent, FaultPlan
from repro.graph import synthetic_lp_graph
from repro.nn.models import build_model
from repro.obs import RunObserver
from repro.partition.registry import PartitionSpec
from repro.serve import ServingCluster
from repro.stream import (
    STREAM_STATE_SCHEMA,
    RolloutGate,
    StreamConfig,
    StreamDriver,
)
from repro.stream.errors import StreamStateError

from conftest import assert_one_table

BACKENDS = ("serial", "thread", "process")

NODES, DIM = 50, 8
MODEL_SPEC = {"gnn_type": "sage", "in_dim": DIM, "hidden_dim": 8,
              "num_layers": 2, "seed": 5}


def _fixture():
    graph = synthetic_lp_graph(NODES, 150, feature_dim=DIM,
                               rng=np.random.default_rng(5))
    model = build_model(**MODEL_SPEC)
    return model, graph, PartitionSpec("metis", mirror=True)


def _config(**overrides):
    base = dict(ticks=3, seed=5, requests_per_tick=10,
                inserts_per_tick=4.0, deletes_per_tick=1.0,
                drifts_per_tick=1.0, embed_batch=16)
    base.update(overrides)
    return StreamConfig(**base)


def _run(config, backend="serial", observer=None):
    model, graph, spec = _fixture()
    driver = StreamDriver(model, graph, spec, 3, config,
                          backend=backend, observer=observer)
    return driver.run()


class TestDeterminism:
    def test_digest_identical_across_backends(self):
        digests = {name: _run(_config(), name).digest()
                   for name in BACKENDS}
        assert len(set(digests.values())) == 1, digests

    def test_digest_identical_under_faults(self):
        plan = FaultPlan(events=[
            FaultEvent(kind="crash", epoch=1, round=3, worker=1),
            FaultEvent(kind="store_outage", epoch=2, round=2,
                       rounds=2)])
        digests = {name: _run(_config(fault_plan=plan), name).digest()
                   for name in BACKENDS}
        assert len(set(digests.values())) == 1, digests

    def test_faults_change_the_digest(self):
        plan = FaultPlan(events=[
            FaultEvent(kind="crash", epoch=0, round=1, worker=0)])
        assert _run(_config()).digest() != \
            _run(_config(fault_plan=plan)).digest()

    def test_repeat_runs_are_identical(self):
        assert _run(_config()).digest() == _run(_config()).digest()


class TestTickLoop:
    def test_hot_swap_happens_after_warmup(self):
        report = _run(_config(ticks=4))
        assert report.counters["swaps"] >= 1
        swapped = [r for r in report.records if r.swapped]
        assert swapped and all(r.swap_latency_s >= 0.0
                               for r in swapped)

    def test_churn_cell_rebalances_and_rolls_back(self):
        report = _run(_config(rebalance_threshold=1.01, auc_floor=1.5))
        assert report.counters["rebalances"] >= 1
        assert report.counters["rollbacks"] >= 1
        assert report.counters["swaps"] == 0
        rolled = [r for r in report.records if r.rolled_back]
        assert rolled and all("below floor" in r.gate_reason
                              for r in rolled)

    def test_candidate_changed_after_its_promise_rolls_back(
            self, monkeypatch):
        """One bit of tick 1's candidate table flips between the
        driver's checksum promise and the gate: the gate's recompute
        over the served table sees it, the candidate is rolled back and
        the live version keeps serving, on every backend alike."""
        clean = _run(_config(ticks=4))
        assert clean.records[1].swapped
        evaluate = RolloutGate.evaluate

        def corrupting(gate, candidate, promised, live, graph, seed,
                       tick):
            if tick == 1:
                table = candidate.embedding_table()
                table.flags.writeable = True
                table.view(np.uint64)[3, 0] ^= 1
                table.flags.writeable = False
            return evaluate(gate, candidate, promised, live, graph, seed,
                            tick)

        monkeypatch.setattr(RolloutGate, "evaluate", corrupting)
        reports = {backend: _run(_config(ticks=4), backend)
                   for backend in ("serial", "thread")}
        report = reports["serial"]
        assert (report.counters["rollbacks"]
                == clean.counters["rollbacks"] + 1)
        record = report.records[1]
        assert record.rolled_back and not record.swapped
        assert record.gate_reason.startswith("digest mismatch")
        assert record.model_version == report.records[0].model_version
        assert reports["thread"].digest() == report.digest()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_hot_swaps_retire_the_pre_swap_version(self, backend,
                                                   monkeypatch):
        """A swap registers the candidate beside the live version and
        retires the old one after activation, so the cluster holds at
        most two tables however many ticks swap."""
        held = []
        serve = ServingCluster.serve

        def counting_serve(cluster, workload, swaps=None):
            held.append(len(cluster._versions))
            return serve(cluster, workload, swaps=swaps)

        monkeypatch.setattr(ServingCluster, "serve", counting_serve)
        report = _run(_config(ticks=10), backend)
        assert report.counters["swaps"] >= 3
        assert len(held) == 10 and max(held) == 2, held

    def test_each_version_builds_one_decoder(self, monkeypatch):
        """The gate's probe scoring and the cluster's registration
        share one decoder per candidate."""
        from repro.serve import ServableArtifact

        built = []
        decoder = ServableArtifact._decoder
        monkeypatch.setattr(ServableArtifact, "_decoder",
                            lambda self: built.append(1) or decoder(self))
        report = _run(_config(ticks=4))
        gated = sum(1 for r in report.records if r.gate_reason)
        assert report.counters["swaps"] >= 2
        assert len(built) == 1 + gated

    def test_rollback_keeps_prior_version_serving(self):
        report = _run(_config(auc_floor=1.5, rebalance_threshold=0.0))
        versions = [r.model_version for r in report.records]
        assert len(set(versions)) == 1  # nothing ever promoted
        assert report.final_version == versions[0]

    def test_report_shape_and_comm_ledger(self):
        report = _run(_config())
        assert len(report.records) == 3
        doc = report.to_dict()
        assert doc["digest"] == report.digest()
        assert set(doc["comm"]) == {
            "stream_feature_bytes", "stream_structure_bytes",
            "stream_sync_bytes", "serve_feature_bytes",
            "serve_structure_bytes", "serve_sync_bytes"}
        assert report.comm["stream_feature_bytes"] >= 0
        assert report.counters["requests"] == 30
        assert "tick" in report.summary()

    def test_observer_counters(self):
        obs = RunObserver()
        report = _run(_config(ticks=4), observer=obs)
        doc = obs.metrics.to_dict()
        assert doc["stream.ticks"]["value"] == 4
        assert doc["stream.events"]["value"] > 0
        if report.counters["swaps"]:
            assert "stream.swap_latency_s" in doc

    def test_full_refresh_mode_matches_record_flags(self):
        report = _run(_config(refresh="full"))
        assert all(r.refreshed for r in report.records)
        assert all(r.reembed_rows == NODES
                   for r in report.records if r.refreshed)


class TestCheckpointResume:
    """Satellite: mid-stream resume replays the remaining plan to the
    uninterrupted run's digest — on every backend."""

    def _interrupted_dir(self, tmp_path, stop_after=2):
        model, graph, spec = _fixture()
        config = _config(ticks=4, checkpoint_dir=str(tmp_path),
                         checkpoint_every=1)
        driver = StreamDriver(model, graph, spec, 3, config,
                              backend="serial", model_spec=MODEL_SPEC)
        driver._setup()
        for tick in range(stop_after):
            driver._run_tick(tick)
            driver._next_tick = tick + 1
            driver._write_checkpoint(tick)
        # The process "crashes" here: the driver object is dropped.

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_matches_uninterrupted_digest(self, tmp_path,
                                                 backend):
        uninterrupted = _run(_config(ticks=4), backend).digest()
        self._interrupted_dir(tmp_path / "ckpt")
        resumed = StreamDriver.resume(tmp_path / "ckpt",
                                      backend=backend)
        assert_one_table(resumed.active_artifact)
        assert resumed.active_artifact.table.dtype == np.float32
        assert resumed.run().digest() == uninterrupted

    def test_resume_after_completion_reproduces_report(self, tmp_path):
        model, graph, spec = _fixture()
        config = _config(ticks=3, checkpoint_dir=str(tmp_path),
                         checkpoint_every=1)
        driver = StreamDriver(model, graph, spec, 3, config,
                              backend="serial", model_spec=MODEL_SPEC)
        digest = driver.run().digest()
        resumed = StreamDriver.resume(tmp_path)
        assert resumed.run().digest() == digest

    def test_incomplete_checkpoint_is_a_stream_error(self, tmp_path):
        """A checksum-valid snapshot without one of its entries names
        the entry in a ``StreamError``, not a bare ``KeyError``."""
        from repro.checkpoint.store import CheckpointStore
        from repro.stream.errors import StreamError

        self._interrupted_dir(tmp_path / "ckpt")
        _, state, _ = CheckpointStore(tmp_path / "ckpt").latest()
        del state["stream.embed.table"]
        CheckpointStore(tmp_path / "holed").write(state, epoch=1, rnd=0)
        with pytest.raises(StreamError, match="'stream.embed.table'"):
            StreamDriver.resume(tmp_path / "holed")

    def test_v1_checkpoint_resumes_bit_identically(self, tmp_path):
        """A checkpoint written before the hidden tables were saved
        (schema v1) rebuilds them by one full pass on resume."""
        uninterrupted = _run(_config(ticks=4)).digest()
        self._interrupted_dir(tmp_path / "ckpt")
        _, state, _ = CheckpointStore(tmp_path / "ckpt").latest()
        v2 = StreamDriver.resume(tmp_path / "ckpt")
        meta = json.loads(str(state["stream.meta.json"]))
        assert meta["schema"] == STREAM_STATE_SCHEMA
        meta["schema"] = "repro_stream_state/v1"
        del meta["reembed_hidden_tables"]
        state["stream.meta.json"] = np.array(json.dumps(meta))
        stripped = [key for key in state if key.startswith(
            ("stream.embed.hidden.", "stream.embed.drifted",
             "stream.embed.endpoints"))]
        assert len(stripped) == 3
        for key in stripped:
            del state[key]
        CheckpointStore(tmp_path / "v1").write(state, epoch=1, rnd=0)
        v1 = StreamDriver.resume(tmp_path / "v1")
        assert [t.tobytes() for t in v1.reembedder.hidden] == [
            t.tobytes() for t in v2.reembedder.hidden]
        assert v1.run().digest() == uninterrupted

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_a_stored_dropout_rate_resumes_only_when_inert(self, tmp_path,
                                                          dropout):
        """A ``model_spec`` written while models still had dropout: its
        inert rate replays to the uninterrupted digest, a live one is a
        ``StreamError`` naming the key."""
        from repro.stream.errors import StreamError

        self._interrupted_dir(tmp_path / "ckpt")
        _, state, _ = CheckpointStore(tmp_path / "ckpt").latest()
        meta = json.loads(str(state["stream.meta.json"]))
        meta["model_spec"]["dropout"] = dropout
        state["stream.meta.json"] = np.array(json.dumps(meta))
        CheckpointStore(tmp_path / "old").write(state, epoch=1, rnd=0)
        if dropout:
            with pytest.raises(StreamError, match="'dropout'"):
                StreamDriver.resume(tmp_path / "old")
        else:
            resumed = StreamDriver.resume(tmp_path / "old")
            assert resumed.run().digest() == _run(_config(ticks=4)).digest()

    def test_float64_checkpoint_resumes_to_the_float32_run(self, tmp_path):
        """A v2 checkpoint with float64 weights and re-embedding tables
        (and the float32 served table), as a float64 build wrote it,
        loads into the float32 re-embedder and replays to the float32
        run's digest (float32 values widen and narrow back exactly)."""
        uninterrupted = _run(_config(ticks=4)).digest()
        self._interrupted_dir(tmp_path / "ckpt")
        info, state, _ = CheckpointStore(tmp_path / "ckpt").latest()
        wide = {key: value.astype(np.float64)
                if key.startswith(("stream.model.", "stream.embed."))
                and value.dtype == np.float32 else value
                for key, value in state.items()}
        assert wide["stream.embed.table"].dtype == np.float64
        assert wide["stream.embed.hidden.0000"].dtype == np.float64
        CheckpointStore(tmp_path / "f64").write(wide, epoch=info.epoch,
                                                rnd=info.round)
        resumed = StreamDriver.resume(tmp_path / "f64")
        reembedder = resumed.reembedder
        assert [t.dtype for t in reembedder.hidden + [reembedder.table]] \
            == [np.float32] * (len(reembedder.hidden) + 1)
        assert resumed.model.vector.values.dtype == np.float32
        assert resumed.run().digest() == uninterrupted

    def test_unknown_schema_is_a_stream_error(self, tmp_path):
        from repro.stream.errors import StreamError

        self._interrupted_dir(tmp_path / "ckpt")
        _, state, _ = CheckpointStore(tmp_path / "ckpt").latest()
        meta = json.loads(str(state["stream.meta.json"]))
        meta["schema"] = "repro_stream_state/v0"
        state["stream.meta.json"] = np.array(json.dumps(meta))
        CheckpointStore(tmp_path / "v0").write(state, epoch=1, rnd=0)
        with pytest.raises(StreamError, match="v0"):
            StreamDriver.resume(tmp_path / "v0")

    def test_checkpoint_requires_model_spec(self, tmp_path):
        model, graph, spec = _fixture()
        config = _config(checkpoint_dir=str(tmp_path))
        with pytest.raises(StreamStateError):
            StreamDriver(model, graph, spec, 3, config)

    def test_resume_with_churn_and_faults(self, tmp_path):
        """Rebalances, rollbacks and fault windows all replay."""
        plan = FaultPlan(events=[
            FaultEvent(kind="crash", epoch=3, round=2, worker=1)])
        model, graph, spec = _fixture()
        config = _config(ticks=4, rebalance_threshold=1.01,
                         auc_floor=1.5, fault_plan=plan)
        uninterrupted = StreamDriver(
            model, graph, spec, 3, config).run().digest()
        ckpt = _config(ticks=4, rebalance_threshold=1.01,
                       auc_floor=1.5, fault_plan=plan,
                       checkpoint_dir=str(tmp_path),
                       checkpoint_every=1)
        model2, graph2, spec2 = _fixture()
        driver = StreamDriver(model2, graph2, spec2, 3, ckpt,
                              model_spec=MODEL_SPEC)
        driver._setup()
        for tick in range(2):
            driver._run_tick(tick)
            driver._next_tick = tick + 1
            driver._write_checkpoint(tick)
        resumed = StreamDriver.resume(tmp_path)
        assert resumed.run().digest() == uninterrupted


def _assert_current(driver):
    """Every re-embedder table equals a from-scratch pass over the
    stream's current graph."""
    want = materialize_layers(driver.model, driver.mutable.snapshot())
    got = driver.reembedder.hidden + [driver.reembedder.table]
    assert [t.tobytes() for t in got] == [t.tobytes() for t in want]


class TestRefreshCadence:
    """With ``refresh_every > 1`` a frontier refresh covers every tick's
    changes since the previous refresh, also across a checkpoint taken
    between refreshes."""

    @pytest.mark.parametrize("every", [2, 3])
    def test_refresh_ticks_equal_a_from_scratch_pass(self, tmp_path,
                                                     every):
        overrides = dict(ticks=6, refresh_every=every, embed_batch=1,
                         inserts_per_tick=2.0, deletes_per_tick=1.0,
                         drifts_per_tick=1.0)
        uninterrupted = _run(_config(**overrides)).digest()
        model, graph, spec = _fixture()
        driver = StreamDriver(
            model, graph, spec, 3,
            _config(**overrides, checkpoint_dir=str(tmp_path)),
            model_spec=MODEL_SPEC)
        driver._setup()
        stop = every  # one tick past the first refresh
        for tick in range(stop + 1):
            driver._run_tick(tick)
            driver._next_tick = tick + 1
            driver._write_checkpoint(tick)
            if (tick + 1) % every == 0:
                _assert_current(driver)
        resumed = StreamDriver.resume(tmp_path)
        for tick in range(stop + 1, 6):
            resumed._run_tick(tick)
            resumed._next_tick = tick + 1
            if (tick + 1) % every == 0:
                _assert_current(resumed)
        assert resumed.run().digest() == uninterrupted


class TestValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig(refresh="sometimes")
        with pytest.raises(ValueError):
            StreamConfig(ticks=0)
        with pytest.raises(ValueError):
            StreamConfig(swap_fraction=1.5)
        with pytest.raises(ValueError):
            StreamConfig.from_dict({"definitely_not_a_field": 1})

    def test_config_round_trip_with_plans(self):
        plan = FaultPlan(events=[
            FaultEvent(kind="crash", epoch=0, round=0, worker=0)])
        config = _config(fault_plan=plan)
        clone = StreamConfig.from_dict(config.to_dict())
        assert clone.fault_plan.events == plan.events
        assert clone.to_dict() == config.to_dict()

    def test_featureless_graph_rejected(self):
        from repro.graph import Graph
        bare = Graph.from_edges(6, [[0, 1], [1, 2], [2, 3]])
        model, _, spec = _fixture()
        with pytest.raises(Exception):
            StreamDriver(model, bare, spec, 2, _config())

    def test_unknown_backend_rejected(self):
        model, graph, spec = _fixture()
        with pytest.raises(ValueError):
            StreamDriver(model, graph, spec, 3, _config(),
                         backend="gpu_cluster")
