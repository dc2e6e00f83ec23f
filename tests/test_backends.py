"""Execution-backend equivalence and lifecycle tests.

The contract under test: ``serial``, ``thread`` and ``process``
backends produce bit-identical TrainResults (accuracy, loss history)
and byte-identical CommMeter ledgers for the same seed, at 2 and 4
workers — the backend is an engine choice, never a semantics choice.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.core.frameworks import run_framework
from repro.distributed import (
    BACKEND_NAMES,
    DistributedScorer,
    ProcessBackend,
    RemoteGraphStore,
    SerialBackend,
    ThreadBackend,
    TrainConfig,
    make_backend,
)
from repro.distributed.backends import WorkerHost
from repro.faults import FaultPlan, WorkerDiedError
from repro.graph import split_edges, synthetic_lp_graph
from repro.nn.models import build_model
from repro.partition import partition_graph

HAS_FORK = "fork" in mp.get_all_start_methods()


@pytest.fixture(scope="module")
def split():
    """One medium community graph shared by every equivalence case."""
    rng = np.random.default_rng(902)
    graph = synthetic_lp_graph(num_nodes=140, target_edges=520,
                               feature_dim=16, num_communities=4, rng=rng)
    return split_edges(graph, rng=rng)


def _train(split, backend, workers, seed, sync="model", framework="splpg",
           fault_plan=None):
    config = TrainConfig(hidden_dim=16, num_layers=2, fanouts=(5, 5),
                         epochs=2, batch_size=64, seed=seed, sync=sync,
                         backend=backend, observe=False,
                         fault_plan=fault_plan)
    return run_framework(framework, split, workers, config,
                         rng=np.random.default_rng(seed))


def _fingerprint(result):
    """Everything that must match bit for bit across backends."""
    return (
        result.test.hits,
        result.test.auc,
        result.best_epoch,
        tuple(s.mean_loss for s in result.history),
        tuple(tuple(sorted(s.comm.to_dict().items()))
              for s in result.history),
        tuple(sorted(result.comm_total.to_dict().items())),
        result.dropped_contributions,
    )


class TestTrainingEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_thread_matches_serial(self, split, workers, seed):
        base = _train(split, "serial", workers, seed)
        other = _train(split, "thread", workers, seed)
        assert _fingerprint(other) == _fingerprint(base)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_process_matches_serial(self, split, workers, seed):
        base = _train(split, "serial", workers, seed)
        other = _train(split, "process", workers, seed)
        assert _fingerprint(other) == _fingerprint(base)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_grad_sync_equivalence(self, split):
        base = _train(split, "serial", 2, 0, sync="grad")
        for backend in ("thread", "process"):
            other = _train(split, backend, 2, 0, sync="grad")
            assert _fingerprint(other) == _fingerprint(base)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_correction_framework_equivalence(self, split):
        """LLCG exercises the run_correction path on every backend."""
        base = _train(split, "serial", 2, 0, framework="llcg")
        for backend in ("thread", "process"):
            other = _train(split, backend, 2, 0, framework="llcg")
            assert _fingerprint(other) == _fingerprint(base)

    def test_failure_injection_equivalence(self, split):
        """Dropped contributions replay identically across backends."""
        plan = FaultPlan.from_probability(0.3)
        base = _train(split, "serial", 2, 3, fault_plan=plan)
        other = _train(split, "thread", 2, 3, fault_plan=plan)
        assert base.dropped_contributions > 0
        assert _fingerprint(other) == _fingerprint(base)


class TestScorerEquivalence:
    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_scores_and_ledger_match(self, split):
        rng = np.random.default_rng(11)
        graph = split.train_graph
        part = partition_graph(graph, 3, rng=np.random.default_rng(1))
        model = build_model("sage", graph.feature_dim, 16, num_layers=2,
                            seed=0)
        pairs = np.stack([rng.integers(0, graph.num_nodes, 50),
                          rng.integers(0, graph.num_nodes, 50)], axis=1)
        results = {}
        for backend in BACKEND_NAMES:
            scorer = DistributedScorer(
                model, part, remote=RemoteGraphStore(graph), fanouts=(5, 5),
                rng=np.random.default_rng(3), backend=backend)
            results[backend] = scorer.score(pairs)
        base = results["serial"]
        for backend in ("thread", "process"):
            got = results[backend]
            assert np.array_equal(got.scores, base.scores)
            assert got.comm.to_dict() == base.comm.to_dict()
            assert got.pairs_per_worker == base.pairs_per_worker

    def test_unknown_backend_rejected(self, split):
        part = partition_graph(split.train_graph, 2,
                               rng=np.random.default_rng(1))
        model = build_model("sage", split.train_graph.feature_dim, 8,
                            num_layers=2, seed=0)
        with pytest.raises(ValueError, match="unknown backend"):
            DistributedScorer(model, part, backend="gpu")

    def test_summary_mentions_routing(self, split):
        part = partition_graph(split.train_graph, 2,
                               rng=np.random.default_rng(1))
        model = build_model("sage", split.train_graph.feature_dim, 8,
                            num_layers=2, seed=0)
        scorer = DistributedScorer(model, part,
                                   remote=RemoteGraphStore(split.train_graph),
                                   fanouts=(3, 3),
                                   rng=np.random.default_rng(0))
        res = scorer.score(np.array([[0, 1], [2, 3]]))
        text = res.summary()
        assert "pairs scored" in text and "communication" in text


class TestBackendFactoryAndConfig:
    def test_make_backend_names(self):
        assert isinstance(make_backend("serial", 4), SerialBackend)
        assert isinstance(make_backend("thread", 4), ThreadBackend)
        if HAS_FORK:
            assert isinstance(make_backend("process", 4), ProcessBackend)

    def test_make_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("cuda", 4)

    def test_single_worker_degrades_with_warning(self):
        with pytest.warns(RuntimeWarning, match="degrading to the serial"):
            backend = make_backend("process", 1)
        assert isinstance(backend, SerialBackend)
        assert not isinstance(backend, ProcessBackend)

    def test_config_validates_backend_name(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            TrainConfig(fanouts=(5, 5), num_layers=2, backend="mpi")

    def test_config_single_worker_process_degrades(self, split):
        """The trainer's ``make_backend`` degrades a one-partition
        process run; the config keeps naming ``process``."""
        from repro.core.frameworks import FRAMEWORKS, build_trainer

        config = TrainConfig(hidden_dim=8, num_layers=2, fanouts=(3, 3),
                             epochs=1, backend="process", num_workers=1,
                             observe=False)
        assert config.backend == "process"
        with pytest.warns(RuntimeWarning, match="degrading"):
            trainer = build_trainer(FRAMEWORKS["psgd_pa"], split, 1, config,
                                    rng=np.random.default_rng(0))
        assert type(trainer.backend) is SerialBackend
        assert config.backend == "process"

    def test_config_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            TrainConfig(fanouts=(5, 5), num_layers=2, num_workers=-1)

    def test_trainer_rejects_worker_partition_mismatch(self, split):
        from repro.core.frameworks import FRAMEWORKS, build_trainer

        config = TrainConfig(hidden_dim=8, num_layers=2, fanouts=(3, 3),
                             epochs=1, num_workers=3, observe=False)
        with pytest.raises(ValueError, match="does not match"):
            build_trainer(FRAMEWORKS["psgd_pa"], split, 2, config,
                          rng=np.random.default_rng(0))


class TestObservedParallelRuns:
    def test_pool_metrics_recorded_for_thread_backend(self, split):
        config = TrainConfig(hidden_dim=12, num_layers=2, fanouts=(4, 4),
                             epochs=1, batch_size=64, seed=0,
                             backend="thread", observe=True)
        result = run_framework("psgd_pa", split, 2, config,
                               rng=np.random.default_rng(0))
        metrics = result.report.metrics
        assert metrics["pool.rounds"]["value"] > 0
        assert metrics["pool.tasks"]["value"] > 0
        assert metrics["pool.workers"]["value"] == 2
        assert "train.wall_clock_s" in metrics

    def test_no_pool_metrics_for_serial(self, split):
        config = TrainConfig(hidden_dim=12, num_layers=2, fanouts=(4, 4),
                             epochs=1, batch_size=64, seed=0,
                             backend="serial", observe=True)
        result = run_framework("psgd_pa", split, 2, config,
                               rng=np.random.default_rng(0))
        assert "pool.rounds" not in result.report.metrics
        assert "train.wall_clock_s" not in result.report.metrics


class TestElasticRemovalOfWorkerZero:
    """Worker 0's replica is the one the evaluator and the correction
    hook read.  Once elastic recovery removes worker 0, validation must
    score the first *live* replica and a hook must never be handed (and
    broadcast) the weights worker 0 held when it left — on every
    backend alike, so the digests agree."""

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    @pytest.mark.parametrize("sync", ["grad", "model", "ps"])
    @pytest.mark.parametrize("framework", ["psgd_pa", "llcg"])
    def test_one_digest_across_backends(self, split, framework, sync):
        from repro.faults import FaultEvent, FaultPlan

        plan = FaultPlan(name="crash-worker-0", events=(
            FaultEvent(kind="crash", epoch=0, round=1, worker=0),))
        digests = {}
        for backend in BACKEND_NAMES:
            config = TrainConfig(hidden_dim=16, num_layers=2,
                                 fanouts=(5, 5), epochs=3, batch_size=64,
                                 seed=0, sync=sync, backend=backend,
                                 fault_plan=plan, recovery="elastic")
            result = run_framework(framework, split, 3, config,
                                   rng=np.random.default_rng(0))
            assert result.faults["elastic_removed"] == 1
            digests[backend] = result.digest()
        assert len(set(digests.values())) == 1, digests


class TestWorkerHost:
    """The one worker executor, driven directly."""

    def test_snapshot_then_replay_reproduces_the_worker(self, split):
        """snapshot -> k commands -> load_snapshot -> replay(the same k)
        lands on the same weights and the same RNG state — the recovery
        every backend runs under ``restore`` — and is silent: the
        meter's open record is untouched by ``replay``."""
        from repro.core.frameworks import FRAMEWORKS, build_trainer
        from repro.distributed.backends import WorkerHost, wipe_worker
        from repro.nn.serialize import model_fingerprint

        config = TrainConfig(hidden_dim=16, num_layers=2, fanouts=(5, 5),
                             epochs=1, batch_size=64, seed=4, sync="grad",
                             observe=True)
        trainer = build_trainer(FRAMEWORKS["splpg"], split, 2, config,
                                rng=np.random.default_rng(4))
        worker = trainer.workers[1]
        meter = trainer.meters[1]
        host = WorkerHost(trainer, 1, spans=False)
        tag, payload = host.execute(("snapshot", 0, 0))
        assert tag == "snapshot"

        vector = worker.model.vector
        grads = (np.full_like(vector.grads, 0.01),
                 np.ones(len(vector.params), dtype=bool))
        halved = vector.values * 0.5
        commands = [("epoch",), ("draw",), ("train", True, True),
                    ("grads", grads), ("step",), ("set_model", halved),
                    ("draw",),
                    ("train", False, True), ("draw",),
                    ("train", True, False), ("step",)]
        replies = [host.execute(msg) for msg in commands]
        assert replies[1] == ("drawn", True)
        assert replies[7] == ("result", None)        # discarded batch
        assert replies[9][1][3] is None              # grads not wanted
        want = (model_fingerprint(worker.model), worker.optimizer.lr,
                worker.rng.bit_generator.state)
        record = meter.current
        charged = record.to_dict()
        assert charged["feature_bytes"] > 0      # the commands did fetch
        counters = trainer.observer.metrics.to_dict()

        wipe_worker(worker)
        assert model_fingerprint(worker.model) != want[0]
        host.execute(("load_snapshot", payload))
        assert host.execute(("replay", commands)) == ("replayed",
                                                      len(commands))
        assert (model_fingerprint(worker.model), worker.optimizer.lr,
                worker.rng.bit_generator.state) == want
        assert meter.current is record and record.to_dict() == charged
        assert trainer.observer.metrics.to_dict() == counters
        assert meter.obs is trainer.observer     # re-attached


class TestIdempotentClose:
    class _StubTrainer:
        def __init__(self, n: int = 2):
            self.workers = [object()] * n
            self.config = TrainConfig()

    @pytest.mark.parametrize("factory", [SerialBackend,
                                         lambda: ThreadBackend(2)])
    def test_close_shuts_down_exactly_once(self, factory):
        backend = factory()
        calls = []
        real_shutdown = backend.shutdown
        backend.shutdown = lambda: (calls.append(1), real_shutdown())
        backend.bind(self._StubTrainer())
        backend.close()
        backend.close()
        backend.close()
        assert len(calls) == 1

    def test_rebind_rearms_close(self):
        backend = SerialBackend()
        backend.bind(self._StubTrainer())
        backend.close()
        backend.bind(self._StubTrainer())
        assert backend.trainer is not None
        backend.close()
        assert backend.trainer is None

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_process_backend_survives_double_shutdown(self, split):
        """train() closes its backend in a finally; closing again by
        hand must be a no-op, not a crash on dead pipes."""
        from repro.core.frameworks import FRAMEWORKS, build_trainer

        config = TrainConfig(hidden_dim=12, num_layers=2, fanouts=(4, 4),
                             epochs=1, batch_size=64, seed=0,
                             backend="process")
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], split, 2, config,
                                rng=np.random.default_rng(0))
        trainer.train()
        backend = trainer.backend
        assert isinstance(backend, ProcessBackend)
        backend.close()
        backend.close()


@pytest.mark.skipif(not HAS_FORK, reason="the process backend forks")
class TestWrongTagFrames:
    """A forked child that answers a ``draw`` with a ``model`` frame is
    handled as one whose frame does not decode: ``WorkerDiedError``,
    which recovery respawns from, never an unpacking error."""

    @staticmethod
    def _answer_draws_with_models(monkeypatch, marker=None):
        """Worker 1's child answers ``draw`` with its weights — every
        time, or only until it has created ``marker``."""
        execute = WorkerHost.execute

        def lying(host, msg):
            if (msg[0] == "draw" and host.part == 1
                    and (marker is None or not marker.exists())):
                if marker is not None:
                    marker.touch()
                return ("model", host.trainer.workers[1].model.vector
                        .values.copy())
            return execute(host, msg)

        monkeypatch.setattr(WorkerHost, "execute", lying)

    @staticmethod
    def _config():
        return TrainConfig(hidden_dim=16, num_layers=2, fanouts=(5, 5),
                           epochs=1, batch_size=64, seed=4,
                           backend="process", observe=False,
                           recovery="drop", fault_timeout_s=15.0)

    def test_a_persistent_liar_raises_worker_died(self, split, monkeypatch):
        """The respawned child lies again; its wrong tag surfaces."""
        self._answer_draws_with_models(monkeypatch)
        with pytest.raises(WorkerDiedError,
                           match="tagged 'model', not 'drawn'"):
            run_framework("splpg", split, 2, self._config(),
                          rng=np.random.default_rng(4))

    def test_one_wrong_frame_is_recovered_as_a_death(self, split,
                                                     monkeypatch, tmp_path):
        self._answer_draws_with_models(monkeypatch, tmp_path / "lied")
        result = run_framework("splpg", split, 2, self._config(),
                               rng=np.random.default_rng(4))
        assert (tmp_path / "lied").exists()
        assert result.faults["child_deaths"] == 1
        assert result.faults["respawns"] == 1
        assert np.isfinite([s.mean_loss for s in result.history]).all()


class TestGarbledFrames:
    """A reply frame that is not a ``(tag, payload)`` pair is read as a
    dead child by both pipe readers, through a stub pipe (no fork)."""

    GARBLED = [None, (), ("model",), "model", (1, 2), ("model", 1, 2),
               ["model", 0]]

    class _Pipe:
        """Answers every read with the next queued frame."""

        def __init__(self, *frames):
            self.frames = list(frames)

        def poll(self, _timeout):
            return bool(self.frames)

        def recv(self):
            return self.frames.pop(0)

    class _Alive:
        def is_alive(self):
            return True

    def _backend(self, *frames):
        backend = ProcessBackend(1)
        backend._conns = [self._Pipe(*frames)]
        backend._procs = [self._Alive()]
        backend._inbox = [[]]
        backend._timeout_s = 5.0
        return backend

    @pytest.mark.parametrize("frame", GARBLED, ids=repr)
    def test_both_readers_raise_worker_died(self, frame):
        backend = self._backend(("drawn", True), frame)
        with pytest.raises(WorkerDiedError, match="tagged None"):
            backend._recv_tagged(0, "model", "get_model")
        # The earlier request's well-formed reply stays buffered.
        assert backend._inbox[0] == [("drawn", True)]
        with pytest.raises(WorkerDiedError, match="tagged None"):
            self._backend(frame)._raw_recv(0, "get_model")
