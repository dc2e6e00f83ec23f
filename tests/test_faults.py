"""Fault-tolerance subsystem: plans and recovery policies.

Covers the acceptance criteria of the ``repro.faults`` PR:

* an empty :class:`FaultPlan` is bit-identical to no plan at all, on
  every backend;
* a crash-probability plan (``FaultPlan.from_probability``) draws the
  same on every backend and through its stored dict form;
* every recovery policy (``drop`` / ``retry`` / ``restore`` /
  ``elastic``) completes under injected faults, and ``restore`` is
  bit-identical to the fault-free twin;
* the process backend detects a real SIGKILL mid-training and
  finishes under every policy;
* fault events land in ``TrainResult.faults`` and (when observing)
  as ``fault`` spans / ``fault.*`` counters in the RunReport;
* the worker codec (``repro.checkpoint.worker_state_bytes``)
  round-trips bit-exactly through ``repro.nn.serialize``;
* ``restore`` is one mechanism: the same history, accuracy, byte
  ledger *and* fault counters on every backend;
* ``TrainConfig`` rejects incoherent fault settings;
* lint rule R106 flags unguarded worker I/O.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.checkpoint import load_worker_state, worker_state_bytes
from repro.core.frameworks import run_framework
from repro.distributed import TrainConfig
from repro.faults import RECOVERY_POLICIES, FaultEvent, FaultPlan
from repro.graph import split_edges, synthetic_lp_graph

HAS_FORK = "fork" in mp.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="process backend needs the fork start method")


@pytest.fixture(scope="module")
def split():
    """One medium community graph shared by every fault case."""
    rng = np.random.default_rng(902)
    graph = synthetic_lp_graph(num_nodes=140, target_edges=520,
                               feature_dim=16, num_communities=4, rng=rng)
    return split_edges(graph, rng=rng)


def _train(split, backend="serial", sync="model", plan=None,
           recovery="drop", seed=7, workers=3, epochs=2,
           observe=False, **cfg):
    config = TrainConfig(hidden_dim=16, num_layers=2, fanouts=(5, 5),
                         epochs=epochs, batch_size=64, seed=seed,
                         sync=sync, backend=backend, observe=observe,
                         fault_plan=plan,
                         recovery=recovery, fault_timeout_s=15.0,
                         retry_backoff_s=0.05, **cfg)
    return run_framework("splpg", split, workers, config,
                         rng=np.random.default_rng(seed))


def _fingerprint(result):
    """Everything that must match bit for bit across twins."""
    return (
        result.test.hits,
        result.test.auc,
        result.best_epoch,
        tuple(s.mean_loss for s in result.history),
        tuple(tuple(sorted(s.comm.to_dict().items()))
              for s in result.history),
    )


CRASH_PLAN = FaultPlan(
    name="crash", events=(
        FaultEvent(kind="crash", epoch=1, round=1, worker=1),))

MIXED_PLAN = FaultPlan(
    name="mixed", events=(
        FaultEvent(kind="straggle", epoch=0, round=1, worker=0,
                   delay_s=0.5),
        FaultEvent(kind="crash", epoch=1, round=0, worker=1),
        FaultEvent(kind="msg_loss", epoch=1, round=1, worker=2),
        FaultEvent(kind="msg_corrupt", epoch=1, round=2, worker=0),
        FaultEvent(kind="store_outage", epoch=0, round=2, rounds=2),
    ))


# ---------------------------------------------------------------------------
# FaultPlan


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="meteor", epoch=0, round=0)
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", epoch=-1, round=0)
        with pytest.raises(ValueError):
            FaultEvent(kind="straggle", epoch=0, round=0, delay_s=-1.0)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(worker_failure_prob=1.0)
        assert FaultPlan.empty().is_empty()
        assert not FaultPlan.from_probability(0.2).is_empty()
        assert not CRASH_PLAN.is_empty()

    def test_events_at(self):
        assert MIXED_PLAN.events_at(1, 0)[0].kind == "crash"
        assert MIXED_PLAN.events_at(0, 0) == []
        assert MIXED_PLAN.max_worker() == 2

    def test_dict_round_trip(self):
        clone = FaultPlan.from_dict(MIXED_PLAN.to_dict())
        assert clone == MIXED_PLAN
        assert clone.describe() == MIXED_PLAN.describe()

    def test_random_is_seeded(self):
        a = FaultPlan.random(num_workers=4, epochs=3, seed=5)
        b = FaultPlan.random(num_workers=4, epochs=3, seed=5)
        c = FaultPlan.random(num_workers=4, epochs=3, seed=6)
        assert a == b
        assert a != c


# ---------------------------------------------------------------------------
# TrainConfig validation


class TestConfigValidation:
    def test_unknown_recovery_rejected(self):
        with pytest.raises(ValueError, match="recovery"):
            TrainConfig(recovery="pray")

    def test_restore_on_process_needs_checkpointing(self):
        """One restore mechanism, one rule: restore points are taken
        every ``checkpoint_every`` epochs on every backend.  (A loop,
        not a parametrisation, so the test keeps its committed id.)"""
        for backend in ("serial", "thread", "process"):
            with pytest.raises(ValueError,
                               match="checkpoint|checkpointing"):
                TrainConfig(backend=backend, recovery="restore",
                            checkpoint_every=0, num_workers=2)
            # Checkpointing on (the default) is fine.
            TrainConfig(backend=backend, recovery="restore", num_workers=2)

    def test_fault_knob_ranges(self):
        with pytest.raises(ValueError):
            TrainConfig(fault_timeout_s=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_retries=-1)
        with pytest.raises(ValueError):
            TrainConfig(retry_backoff_s=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(checkpoint_every=-1)

    def test_degrade_warning_carries_reason(self):
        from repro.distributed.backends import SerialBackend, make_backend

        with pytest.warns(RuntimeWarning, match="reason:"):
            backend = make_backend("thread", 1)
        assert type(backend) is SerialBackend

    def test_plan_accepts_dict_form(self):
        config = TrainConfig(fault_plan=CRASH_PLAN.to_dict())
        assert isinstance(config.fault_plan, FaultPlan)
        assert config.fault_plan == CRASH_PLAN


# ---------------------------------------------------------------------------
# Bit-identity of the no-fault paths


class TestEmptyPlanBitIdentity:
    def test_empty_plan_matches_no_plan_serial(self, split):
        assert (_fingerprint(_train(split))
                == _fingerprint(_train(split, plan=FaultPlan.empty())))

    def test_empty_plan_matches_no_plan_thread(self, split):
        assert (_fingerprint(_train(split, backend="thread"))
                == _fingerprint(_train(split, backend="thread",
                                       plan=FaultPlan.empty())))

    @needs_fork
    def test_empty_plan_matches_no_plan_process(self, split):
        assert (_fingerprint(_train(split))
                == _fingerprint(_train(split, backend="process",
                                       plan=FaultPlan.empty())))

    def test_legacy_prob_equals_compiled_plan(self, split):
        """A crash-probability plan draws the same through its
        ``to_dict`` form, the form a checkpoint stores."""
        plan = FaultPlan.from_probability(0.3)
        result = _train(split, plan=plan)
        assert result.dropped_contributions > 0
        assert (_fingerprint(result)
                == _fingerprint(_train(split, plan=plan.to_dict())))

    @needs_fork
    def test_legacy_prob_equals_compiled_plan_process(self, split):
        plan = FaultPlan.from_probability(0.3)
        assert (_fingerprint(_train(split, plan=plan))
                == _fingerprint(_train(split, backend="process",
                                       plan=plan)))


# ---------------------------------------------------------------------------
# Recovery policies (in-process backends)


class TestRecoveryPolicies:
    @pytest.mark.parametrize("recovery", RECOVERY_POLICIES)
    @pytest.mark.parametrize("sync", ["model", "grad"])
    def test_policies_complete_under_mixed_faults(self, split, sync,
                                                  recovery):
        result = _train(split, sync=sync, plan=MIXED_PLAN,
                        recovery=recovery)
        assert np.isfinite(result.test.auc)
        assert len(result.history) == 2
        assert result.faults  # the ledger records what happened

    def test_faults_are_deterministic(self, split):
        """Same plan + seed -> byte-identical faulty run (twice)."""
        a = _train(split, plan=MIXED_PLAN, recovery="drop")
        b = _train(split, plan=MIXED_PLAN, recovery="drop")
        assert _fingerprint(a) == _fingerprint(b)

    def test_drop_records_contributions(self, split):
        result = _train(split, plan=MIXED_PLAN, recovery="drop")
        # crash + msg_loss + msg_corrupt all lose their contribution.
        assert result.dropped_contributions == 3
        assert result.faults["dropped_contributions"] == 3

    def test_retry_redelivers(self, split):
        result = _train(split, plan=MIXED_PLAN, recovery="retry")
        assert result.dropped_contributions == 0
        assert result.faults["redelivered"] >= 3
        assert result.faults["retry_backoff_s"] > 0

    def test_restore_is_bit_identical_to_fault_free(self, split):
        """The tentpole invariant: crash + restore-from-checkpoint +
        RNG replay reproduces the fault-free run bit for bit."""
        clean = _train(split, sync="grad")
        restored = _train(split, sync="grad", plan=CRASH_PLAN,
                          recovery="restore")
        assert (tuple(s.mean_loss for s in restored.history)
                == tuple(s.mean_loss for s in clean.history))
        assert restored.test.auc == clean.test.auc
        assert restored.test.hits == clean.test.hits
        assert restored.faults["restores"] == 1

    def test_elastic_removes_worker_and_reweights(self, split):
        result = _train(split, plan=CRASH_PLAN, recovery="elastic")
        assert result.faults["elastic_removed"] == 1
        assert np.isfinite(result.test.auc)

    def test_elastic_spares_last_worker(self, split):
        plan = FaultPlan(events=tuple(
            FaultEvent(kind="crash", epoch=0, round=0, worker=w)
            for w in range(3)))
        result = _train(split, plan=plan, recovery="elastic")
        assert result.faults["elastic_removed"] == 2
        assert result.faults["spared_last_worker"] >= 1
        assert np.isfinite(result.test.auc)

    def test_grad_sync_replicas_stay_identical(self, split):
        """Fault rounds must not desynchronize surviving replicas.

        Uses psgd_pa: splpg's per-worker sparsifier correction makes
        replicas legitimately differ even fault-free."""
        from repro.core import FRAMEWORKS, build_trainer

        config = TrainConfig(hidden_dim=16, num_layers=2, fanouts=(5, 5),
                             epochs=2, batch_size=64, seed=7, sync="grad",
                             fault_plan=MIXED_PLAN, recovery="drop")
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], split, 3, config,
                                rng=np.random.default_rng(7))
        trainer.train()
        states = [w.model.state_dict() for w in trainer.workers]
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name])
            assert np.array_equal(states[0][name], states[2][name])

    def test_consumed_batch_keeps_rng_streams_aligned(self, split):
        """A dropped round still *consumes* the worker's batch: the
        loader permutation advances exactly once per round on every
        backend, so a faulty run stays bit-identical across execution
        engines — the same guarantee the fault-free paths give.  (The
        skipped batch is never sampled, so the worker's stream differs
        from the fault-free twin's — by design, identically
        everywhere.)"""
        crash_plan = FaultPlan(events=(
            FaultEvent(kind="crash", epoch=0, round=1, worker=1),))
        serial = _train(split, plan=crash_plan)
        thread = _train(split, backend="thread", plan=crash_plan)
        assert _fingerprint(serial) == _fingerprint(thread)
        if HAS_FORK:
            # Plan crashes SIGKILL the child on the process backend
            # (warm respawn makes no bit-identity claim), so the
            # three-backend alignment check uses a message fault.
            msg_plan = FaultPlan(events=(
                FaultEvent(kind="msg_loss", epoch=0, round=1, worker=1),))
            assert (_fingerprint(_train(split, plan=msg_plan))
                    == _fingerprint(_train(split, backend="process",
                                           plan=msg_plan)))


# ---------------------------------------------------------------------------
# Process backend: real kills


@needs_fork
class TestProcessBackendKills:
    @pytest.mark.parametrize("recovery", RECOVERY_POLICIES)
    def test_real_sigkill_recovers(self, split, recovery):
        """A plan crash on the process backend SIGKILLs the child for
        real; the guarded receive detects it and the run finishes."""
        result = _train(split, backend="process", plan=CRASH_PLAN,
                        recovery=recovery)
        assert np.isfinite(result.test.auc)
        assert len(result.history) == 2
        if recovery == "elastic":
            assert result.faults["elastic_removed"] == 1
        else:
            assert result.faults.get("child_deaths", 0) >= 1

    def test_restore_bit_identical_after_real_kill(self, split):
        clean = _train(split, backend="process", sync="grad",
                       plan=FaultPlan.empty())
        restored = _train(split, backend="process", sync="grad",
                          plan=CRASH_PLAN, recovery="restore")
        assert (tuple(s.mean_loss for s in restored.history)
                == tuple(s.mean_loss for s in clean.history))
        assert restored.test.auc == clean.test.auc
        assert restored.faults["restores"] == 1
        assert restored.faults["checkpoints"] >= 1

    def test_retry_requeues_the_inflight_batch(self, split):
        result = _train(split, backend="process", plan=CRASH_PLAN,
                        recovery="retry")
        assert result.faults.get("requeued_batches", 0) >= 1
        assert result.dropped_contributions == 0


# ---------------------------------------------------------------------------
# One restore mechanism on every backend


class TestOneRestoreMechanism:
    #: Two mid-epoch crashes around the epoch-2 restore point
    #: (``checkpoint_every=2``): the first replays across an epoch
    #: boundary — the end-of-epoch model average and LLCG's server-side
    #: correction included — the second right after a fresh restore
    #: point, on the replica the evaluator reads.
    PLAN = FaultPlan(name="mid-epoch", events=(
        FaultEvent(kind="crash", epoch=1, round=2, worker=1),
        FaultEvent(kind="crash", epoch=2, round=1, worker=0)))

    @staticmethod
    def _train(split, framework, sync, backend, plan, recovery):
        config = TrainConfig(
            hidden_dim=16, num_layers=2, fanouts=(5, 5), epochs=3,
            batch_size=32, seed=7, sync=sync, sync_every=2,
            sync_every_batches=2, backend=backend, fault_plan=plan,
            recovery=recovery, checkpoint_every=2, fault_timeout_s=15.0)
        return run_framework(framework, split, 3, config,
                             rng=np.random.default_rng(7))

    @pytest.mark.parametrize("sync", ["grad", "model", "local_sgd", "ps",
                                      "async"])
    @pytest.mark.parametrize("framework", ["llcg", "splpg"])
    def test_restore_equals_fault_free_with_one_ledger(self, split,
                                                       framework, sync):
        """``restore`` rebuilds the lost worker exactly — loss history,
        accuracy and every communicated byte equal the fault-free
        run's (replay charges nothing) — and reports the same fault
        counters whichever backend ran it."""
        clean = self._train(split, framework, sync, "serial", None, "drop")
        assert min(s.rounds for s in clean.history) > 2
        ledgers = {}
        for backend in ("serial", "thread", "process"):
            if backend == "process" and not HAS_FORK:
                continue
            got = self._train(split, framework, sync, backend, self.PLAN,
                              "restore")
            assert _fingerprint(got) == _fingerprint(clean), backend
            assert got.comm_total.to_dict() == clean.comm_total.to_dict()
            ledgers[backend] = got.faults
        assert ledgers["serial"]["restores"] == 2
        assert ledgers["serial"]["child_deaths"] == 2
        assert ledgers["serial"]["checkpoints"] == 2
        assert "replayed_batches" not in ledgers["serial"]
        assert all(led == ledgers["serial"] for led in ledgers.values())

    def test_inflight_command_is_dropped_by_identity(self, split):
        """The replay skips the in-flight command only when it is the
        very message last logged.  Two consecutive array-carrying
        frames (a model average, then LLCG's correction) must not be
        compared by value — ``ndarray.__bool__`` would raise inside
        recovery."""
        from repro.core.frameworks import FRAMEWORKS, build_trainer
        from repro.distributed import SerialBackend

        config = TrainConfig(hidden_dim=16, num_layers=2, fanouts=(5, 5),
                             epochs=1, batch_size=64, seed=7,
                             recovery="restore")
        trainer = build_trainer(FRAMEWORKS["llcg"], split, 2, config,
                                rng=np.random.default_rng(7))
        backend = SerialBackend()
        backend.bind(trainer)
        backend.begin_epoch()                    # the restore point
        averaged = trainer.workers[0].model.vector.values.copy()
        corrected = averaged + 1.0
        logged = ("set_model", averaged)
        backend._send(1, logged)
        assert [m[0] for m in backend._cmd_log[1]] == ["epoch", "set_model"]

        replayed = []
        backend._count = lambda name, value=1: replayed.append((name, value))
        # A different frame of the same shape is in flight: nothing is
        # dropped, and comparing it with the logged one does not raise.
        backend._restore_from_log(1, ("set_model", corrected))
        # The logged frame itself is in flight: the caller re-issues it.
        backend._restore_from_log(1, logged)
        assert replayed == [("restores", 1), ("replayed_commands", 2),
                            ("restores", 1), ("replayed_commands", 1)]
        got = trainer.workers[1].model.state_dict()
        reference = trainer.workers[0].model.state_dict()
        assert all(np.array_equal(got[k], reference[k]) for k in got)
        backend.close()


# ---------------------------------------------------------------------------
# Observability: spans, counters, report meta


class TestFaultObservability:
    def test_fault_events_reach_the_report(self, split):
        result = _train(split, plan=MIXED_PLAN, recovery="drop",
                        observe=True)
        report = result.report
        assert report is not None
        assert report.meta["faults"] == {
            k: float(v) for k, v in result.faults.items()}
        counters = [n for n in report.metrics if n.startswith("fault.")]
        assert "fault.crashes" in counters
        assert "fault.dropped_contributions" in counters

        def spans_named(spans, name):
            out = []
            for s in spans:
                if s["name"] == name:
                    out.append(s)
                out.extend(spans_named(s.get("children", []), name))
            return out

        faults = spans_named(report.spans, "fault")
        kinds = {s["attrs"]["kind"] for s in faults}
        assert {"crash", "straggle", "store_outage"} <= kinds

    def test_legacy_counter_name_preserved(self, split):
        result = _train(split, plan=MIXED_PLAN, recovery="drop",
                        observe=True)
        assert ("train.dropped_contributions" in result.report.metrics)

    def test_result_summary_mentions_faults(self, split):
        result = _train(split, plan=CRASH_PLAN, recovery="drop")
        assert "fault" in result.summary()


# ---------------------------------------------------------------------------
# Snapshot round-trip (repro.nn.serialize)


class TestSnapshotRoundTrip:
    def test_mid_training_snapshot_restores_bit_exactly(self, split):
        """Serialize a worker mid-training, scramble it, restore, and
        the model / optimizer / RNG state all match bit for bit."""
        from repro.core import FRAMEWORKS, build_trainer

        config = TrainConfig(hidden_dim=16, num_layers=2, fanouts=(5, 5),
                             epochs=1, batch_size=64, seed=7)
        trainer = build_trainer(FRAMEWORKS["splpg"], split, 2, config,
                                rng=np.random.default_rng(7))
        trainer.train()  # leaves the workers in a mid-stream state
        worker = trainer.workers[0]

        payload = worker_state_bytes(worker, epoch=1, rnd=0)
        assert isinstance(payload, bytes)
        model_before = {k: v.copy()
                        for k, v in worker.model.state_dict().items()}
        optim_before = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                        for k, v in worker.optimizer.state_dict().items()}
        rng_before = worker.rng.bit_generator.state

        # Scramble everything the snapshot claims to capture.
        for p in worker.model.parameters():
            p.data[...] = 0.0
        worker.rng = np.random.default_rng(0xBAD)

        load_worker_state(worker, payload)
        for name, arr in worker.model.state_dict().items():
            assert np.array_equal(arr, model_before[name]), name
        restored_optim = worker.optimizer.state_dict()
        assert set(restored_optim) == set(optim_before)
        for key, val in optim_before.items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(restored_optim[key], val), key
            else:
                assert restored_optim[key] == val, key
        assert worker.rng.bit_generator.state == rng_before
        # The restored stream continues identically.
        probe = np.random.Generator(type(worker.rng.bit_generator)())
        probe.bit_generator.state = rng_before
        assert worker.rng.integers(0, 2**31) == probe.integers(0, 2**31)


# ---------------------------------------------------------------------------
# Lint rule R106


class TestUnguardedWorkerIORule:
    def test_flags_bare_except_and_raw_recv(self):
        from repro.lint import lint_source

        source = (
            "def pump(conn):\n"
            "    try:\n"
            "        return conn.recv()\n"
            "    except:\n"
            "        return None\n")
        findings = [f for f in lint_source(
            source, modpath="repro/distributed/pipes.py")
            if f.rule_id == "R106"]
        assert len(findings) == 2

    def test_scoped_to_distributed(self):
        from repro.lint import lint_source

        source = "def pump(conn):\n    return conn.recv()\n"
        findings = [f for f in lint_source(
            source, modpath="repro/graph/loader.py")
            if f.rule_id == "R106"]
        assert findings == []

    def test_suppression_comment_respected(self):
        from repro.lint import lint_source

        source = ("def pump(conn):\n"
                  "    return conn.recv()  # lint: disable=R106\n")
        findings = [f for f in lint_source(
            source, modpath="repro/distributed/pipes.py")
            if f.rule_id == "R106"]
        assert findings == []

    def test_repo_distributed_layer_is_clean(self):
        from pathlib import Path

        from repro.lint.engine import lint_paths

        src = Path(__file__).resolve().parents[1] / "src"
        findings = lint_paths([src / "repro" / "distributed"],
                              select=["R106"])
        assert findings == []
