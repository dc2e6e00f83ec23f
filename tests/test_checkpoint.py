"""Durable checkpoint/resume: crash-safety and bit-identical resumption.

Covers the :mod:`repro.checkpoint` contract end to end:

* crash mid-training (exception and real SIGKILL) → resume produces a
  bit-identical ``TrainResult.digest()`` versus the uninterrupted run,
  across backends and every sync mode;
* mid-epoch snapshots round-trip exactly (worker models, sampler RNG
  streams, CommMeter ledgers, ParameterServer state, evaluator RNG);
* torn writes are detected and rolled back to the previous durable
  snapshot — and the rolled-back resume is *still* bit-identical;
* every failure mode raises its typed error with an actionable
  message;
* lint rule R110 keeps raw writes out of the persistence paths.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import Session, SessionStateError
from repro.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointNotFoundError,
    load_checkpoint,
    rebuild_trainer,
)
from repro.checkpoint.state import capture_trainer_state, parse_meta
from repro.checkpoint.store import CheckpointStore
from repro.core.frameworks import FRAMEWORKS, build_trainer
from repro.distributed import TrainConfig
from repro.distributed import trainer as trainer_mod
from repro.faults import FaultPlan
from repro.graph import split_edges, synthetic_lp_graph
from repro.lint import lint_source

SYNC_MODES = ("barrier", "ps", "async", "local_sgd")
SEED = 5
EPOCHS = 3


@pytest.fixture(scope="module")
def split():
    """One tiny deterministic link-prediction workload for the module."""
    rng = np.random.default_rng(SEED)
    graph = synthetic_lp_graph(num_nodes=150, target_edges=520,
                               feature_dim=8, num_communities=4, rng=rng)
    return split_edges(graph, rng=rng)


def _config(sync: str = "barrier", backend: str = "serial",
            **overrides) -> TrainConfig:
    defaults = dict(hidden_dim=8, num_layers=2, fanouts=(4, 4),
                    batch_size=64, epochs=EPOCHS, seed=SEED, sync=sync,
                    backend=backend, eval_every=EPOCHS, observe=False)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def _trainer(split, config, framework: str = "splpg"):
    return build_trainer(FRAMEWORKS[framework], split, 2, config,
                         rng=np.random.default_rng(SEED))


class _PlannedCrash(RuntimeError):
    """Raised by a round hook to abort the coordinator loop."""


def _install_crash(epoch: int, rnd: int):
    """Arm a round hook that crashes at exactly ``(epoch, rnd)``."""

    def hook(_trainer, e: int, r: int) -> None:
        if e == epoch and r == rnd:
            raise _PlannedCrash(f"planned crash at ({e}, {r})")

    return trainer_mod.set_round_hook(hook)


def _crash_then_resume(split, config, ckpt_dir, crash_at=(1, 1),
                       train=None):
    """Train-with-crash (``train()``, by default a ``build_trainer``
    run), then resume from disk; returns the result."""
    previous = _install_crash(*crash_at)
    try:
        with pytest.raises(_PlannedCrash):
            (train or _trainer(split, config).train)()
    finally:
        trainer_mod.set_round_hook(previous)
    meta, state = load_checkpoint(ckpt_dir)
    assert meta["epoch"] == crash_at[0] - 1
    return rebuild_trainer(meta, state, split).train()


class TestCrashResumeBitIdentity:
    @pytest.mark.parametrize("sync", SYNC_MODES)
    def test_resume_digest_matches_uninterrupted(self, split, sync,
                                                 tmp_path):
        """Crash at (1, 1) on every backend; one digest everywhere.

        The uninterrupted baseline is computed once per sync mode, so
        the assertion gates crash-resume bit-identity and
        cross-backend bit-identity at the same time.
        """
        baseline = _trainer(split, _config(sync)).train().digest()
        for backend in ("serial", "thread", "process"):
            ckpt_dir = str(tmp_path / backend)
            config = _config(sync, backend, checkpoint_dir=ckpt_dir,
                             checkpoint_every=1)
            resumed = _crash_then_resume(split, config, ckpt_dir)
            assert resumed.digest() == baseline, (
                f"{backend}/{sync}: resumed digest diverged from the "
                "uninterrupted run")

    @pytest.mark.parametrize("alpha", [0.15, 0.6])
    def test_splpg_fit_checkpoints_record_their_alpha(self, split, alpha,
                                                      tmp_path):
        """``SpLPG.fit`` wires its own trainer; its checkpoints must
        name the sparsification level it really used, or resume
        rebuilds a different remote store (0.15 passed by luck)."""
        from repro import SpLPG

        def fit(**overrides):
            return SpLPG(num_parts=3, alpha=alpha, seed=SEED,
                         config=_config(**overrides)).fit(split)

        baseline = fit().digest()
        ckpt_dir = str(tmp_path / "fit")
        resumed = _crash_then_resume(
            split, None, ckpt_dir, crash_at=(2, 0),
            train=lambda: fit(checkpoint_dir=ckpt_dir, checkpoint_every=1))
        assert resumed.digest() == baseline

    #: Uninterrupted runs of the drawn-kill-point test, by
    #: ``(framework, sync)``: each is trained once however often drawn.
    _baselines: dict = {}

    @settings(max_examples=8, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(framework=st.sampled_from(["llcg", "splpg", "psgd_pa",
                                      "vertex_cut"]),
           sync=st.sampled_from(SYNC_MODES + ("model",)),
           epoch=st.integers(1, EPOCHS - 1), rnd=st.integers(0, 7))
    def test_resume_from_a_drawn_kill_point(self, split, framework, sync,
                                            epoch, rnd):
        """The kill point is drawn, not fixed at (1, 1): any framework
        (``llcg`` and its correction state included), any sync mode,
        any later epoch, any round of it — serial backend."""
        key = (framework, sync)
        if key not in self._baselines:
            self._baselines[key] = _trainer(
                split, _config(sync), framework).train()
        baseline = self._baselines[key]
        crash_at = (epoch, rnd % baseline.history[epoch].rounds)
        with tempfile.TemporaryDirectory() as ckpt_dir:
            config = _config(sync, checkpoint_dir=ckpt_dir,
                             checkpoint_every=1)
            resumed = _crash_then_resume(
                split, config, ckpt_dir, crash_at=crash_at,
                train=lambda: _trainer(split, config, framework).train())
        assert resumed.digest() == baseline.digest(), (
            f"{framework}/{sync}: resumed from a crash at {crash_at} "
            "to a different digest")


class TestLegacyFailureProbability:
    def test_stored_probability_resumes_as_its_plan(self, split, tmp_path):
        """A store whose config holds the bare ``worker_failure_prob``
        float (the form written before fault plans) resumes to the
        digest of the uninterrupted ``FaultPlan.from_probability``
        run."""
        plan = FaultPlan.from_probability(0.3)
        baseline = _trainer(split, _config(fault_plan=plan)).train()
        assert baseline.dropped_contributions > 0
        ckpt_dir = str(tmp_path / "plan")
        previous = _install_crash(1, 1)
        try:
            with pytest.raises(_PlannedCrash):
                _trainer(split, _config(fault_plan=plan,
                                        checkpoint_dir=ckpt_dir,
                                        checkpoint_every=1)).train()
        finally:
            trainer_mod.set_round_hook(previous)
        meta, state = load_checkpoint(ckpt_dir)
        stored = parse_meta(state)
        assert stored["config"].pop("fault_plan") == plan.to_dict()
        stored["config"]["worker_failure_prob"] = 0.3
        state["meta_json"] = np.array(json.dumps(stored))
        legacy_dir = str(tmp_path / "legacy")
        CheckpointStore(legacy_dir).write(state, meta["epoch"],
                                          meta["round"])

        meta, state = load_checkpoint(legacy_dir)
        assert meta["config"]["worker_failure_prob"] == 0.3
        assert "fault_plan" not in meta["config"]
        resumed = rebuild_trainer(meta, state, split)
        assert resumed.config.fault_plan == plan
        assert resumed.train().digest() == baseline.digest()


class TestRemovedTrainingKnobs:
    """Stores written while ``TrainConfig`` still had ``dropout``,
    ``patience``, ``lr_decay``/``lr_decay_every``, ``sync_topology`` and
    ``sync_plan``: inert values are dropped, live ones refused."""

    INERT = {"dropout": 0.0, "patience": 0, "lr_decay": 1.0,
             "lr_decay_every": 3, "sync_topology": "allreduce"}

    @pytest.fixture(scope="class")
    def ps_run(self, split, tmp_path_factory):
        """A ``ps`` run crashed at (1, 1), and its uninterrupted digest."""
        baseline = _trainer(split, _config("ps")).train().digest()
        ckpt_dir = str(tmp_path_factory.mktemp("ps") / "ckpt")
        previous = _install_crash(1, 1)
        try:
            with pytest.raises(_PlannedCrash):
                _trainer(split, _config("ps", checkpoint_dir=ckpt_dir,
                                        checkpoint_every=1)).train()
        finally:
            trainer_mod.set_round_hook(previous)
        return ckpt_dir, baseline

    @staticmethod
    def _rewritten(source, target, **changes):
        """``source``'s newest snapshot with ``changes`` in its config."""
        meta, state = load_checkpoint(source)
        stored = parse_meta(state)
        stored["config"].update(changes)
        state["meta_json"] = np.array(json.dumps(stored))
        CheckpointStore(target).write(state, meta["epoch"], meta["round"])
        return load_checkpoint(target)

    def test_inert_values_resume_to_the_uninterrupted_digest(
            self, split, ps_run, tmp_path):
        ckpt_dir, baseline = ps_run
        plan = {"mode": "ps", "num_workers": 2, "seed": SEED,
                "max_staleness": 2, "pull_prob": 0.5, "sync_every": 4,
                "name": "ps-from-config"}
        meta, state = self._rewritten(ckpt_dir, str(tmp_path / "old"),
                                      sync_plan=plan, **self.INERT)
        resumed = rebuild_trainer(meta, state, split)
        assert resumed.train().digest() == baseline

    @pytest.mark.parametrize("key, value", [
        ("patience", 3), ("dropout", 0.5), ("lr_decay", 0.5),
        ("sync_topology", "parameter_server"),
        ("sync_plan", {"mode": "ps", "num_workers": 2, "seed": SEED,
                       "max_staleness": 7, "pull_prob": 0.5,
                       "sync_every": 4}),
    ], ids=["patience", "dropout", "lr_decay", "sync_topology",
            "sync_plan"])
    def test_a_live_value_is_refused_by_name(self, split, ps_run,
                                             tmp_path, key, value):
        meta, state = self._rewritten(ps_run[0], str(tmp_path / "old"),
                                      **{**self.INERT, key: value})
        with pytest.raises(CheckpointMismatchError, match=repr(key)):
            rebuild_trainer(meta, state, split)


class TestMidEpochRoundTrip:
    @pytest.mark.parametrize("sync", SYNC_MODES)
    def test_mid_epoch_snapshot_round_trips(self, split, sync, tmp_path):
        """Snapshot at round 1 of epoch 1; rebuild must match exactly."""
        ckpt_dir = str(tmp_path / "mid")
        store = CheckpointStore(ckpt_dir)
        ref: dict = {}

        def hook(trainer, epoch: int, rnd: int) -> None:
            if epoch != 1 or rnd != 1 or ref:
                return
            state = capture_trainer_state(trainer, epoch=epoch, rnd=rnd)
            store.write(state, epoch=epoch, rnd=rnd)
            ref["models"] = [
                {k: v.copy() for k, v in w.model.state_dict().items()}
                for w in trainer.workers]
            ref["rngs"] = [w.sampler.rng.bit_generator.state
                           for w in trainer.workers]
            ref["meters"] = [
                [r.to_dict() for r in m.epochs] + [m.current.to_dict()]
                for m in trainer.meters]
            ref["eval_rng"] = trainer.evaluator.rng.bit_generator.state
            loop = trainer.loop
            ref["history"] = list(loop.history)
            ref["best_epoch"] = loop.best_epoch
            ref["best"] = loop.best_state.copy()
            if sync == "ps":
                ref["server_version"] = trainer.sync_strategy.version

        previous = trainer_mod.set_round_hook(hook)
        try:
            # Validate every epoch, so epoch 0 has already set the
            # best-validation weights when the hook fires.
            _trainer(split, _config(sync, eval_every=1)).train()
        finally:
            trainer_mod.set_round_hook(previous)
        assert ref, "the snapshot hook never fired"

        meta, state = load_checkpoint(ckpt_dir)
        assert (meta["epoch"], meta["round"]) == (1, 1)
        rebuilt = rebuild_trainer(meta, state, split)
        for i, worker in enumerate(rebuilt.workers):
            got = worker.model.state_dict()
            for name, value in ref["models"][i].items():
                np.testing.assert_array_equal(got[name], value)
            assert worker.sampler.rng.bit_generator.state == \
                ref["rngs"][i]
        assert [[r.to_dict() for r in m.epochs] + [m.current.to_dict()]
                for m in rebuilt.meters] == ref["meters"]
        assert rebuilt.evaluator.rng.bit_generator.state == \
            ref["eval_rng"]
        # The loop state lives on the trainer, so a snapshot taken from
        # a round hook carries the real history and best weights.
        loop = rebuilt.loop
        assert len(ref["history"]) == 1
        assert loop.history == ref["history"]
        assert loop.best_epoch == ref["best_epoch"] == 0
        assert loop.best_state.tobytes() == ref["best"].tobytes()
        if sync == "ps":
            assert rebuilt.sync_strategy.version == ref["server_version"]


    def test_worker_payloads_are_byte_equal_across_backends(self, split):
        """A worker serializes the same bytes — weights, optimizer, RNG
        and the ``(epoch, round)`` stamp — wherever it runs."""
        payloads = {}

        def hook(trainer, epoch: int, rnd: int) -> None:
            if (epoch, rnd) == (1, 1):
                state = capture_trainer_state(trainer, epoch=epoch,
                                              rnd=rnd)
                payloads[trainer.config.backend] = [
                    state[f"worker.{i:04d}.payload"].tobytes()
                    for i in range(len(trainer.workers))]

        previous = trainer_mod.set_round_hook(hook)
        try:
            for backend in ("serial", "thread", "process"):
                _trainer(split, _config(backend=backend)).train()
        finally:
            trainer_mod.set_round_hook(previous)
        assert all(payloads["serial"])
        assert payloads["thread"] == payloads["serial"]
        assert payloads["process"] == payloads["serial"]


class TestLoopStateContract:
    """The loop state lives on the trainer for its whole life: what
    that means for a second ``train()`` and for a relabelled capture."""

    def test_train_runs_once(self, split):
        """A finished trainer does not quietly run zero epochs and hand
        the old history back."""
        trainer = _trainer(split, _config())
        trainer.train()
        with pytest.raises(RuntimeError, match="already ran"):
            trainer.train()

    def test_train_is_not_retried_after_a_crash(self, split):
        """A run an exception cut short is not resumed in place from
        half-advanced worker, meter and fault state."""
        trainer = _trainer(split, _config())
        previous = _install_crash(1, 1)
        try:
            with pytest.raises(_PlannedCrash):
                trainer.train()
        finally:
            trainer_mod.set_round_hook(previous)
        with pytest.raises(RuntimeError, match="already ran"):
            trainer.train()

    def test_relabel_reaches_every_component(self, split):
        """``epoch=`` / ``rnd=`` on a bound, untrained trainer: the meta
        and the worker payloads carry one position, the loop gets its own
        back, and half a relabel is refused."""
        from repro.checkpoint.io import deserialize_state

        trainer = _trainer(split, _config())
        trainer.backend.bind(trainer)
        try:
            state = capture_trainer_state(trainer, epoch=0, rnd=0)
            with pytest.raises(ValueError, match="together"):
                capture_trainer_state(trainer, epoch=0)
        finally:
            trainer.backend.close()
        meta = json.loads(str(state["meta_json"]))
        assert (meta["epoch"], meta["round"]) == (0, 0)
        for i in range(len(trainer.workers)):
            payload = deserialize_state(
                state[f"worker.{i:04d}.payload"].tobytes())
            assert payload["position"].tolist() == [0, 0]
        assert (trainer.loop.epoch, trainer.loop.round) == (-1, 0)

    def test_unobserved_snapshot_restores_into_observed_trainer(
            self, split, tmp_path):
        """``meta["obs"]`` is ``None`` when the writing run was not
        observed: an observed trainer loads it and keeps its own."""
        from repro.checkpoint import restore_trainer

        ckpt_dir = str(tmp_path / "ck")
        _trainer(split, _config(checkpoint_dir=ckpt_dir,
                                checkpoint_every=1)).train()
        meta, state = load_checkpoint(ckpt_dir)
        assert meta["obs"] is None
        observed = _trainer(split, _config(observe=True))
        restore_trainer(observed, state)
        assert observed.loop.epoch == meta["epoch"]


class TestTornWrites:
    def _snapshot_files(self, ckpt_dir):
        with open(os.path.join(ckpt_dir, "manifest.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        return [os.path.join(ckpt_dir, e["file"])
                for e in manifest["entries"]]

    def test_torn_newest_rolls_back_and_stays_bit_identical(
            self, split, tmp_path):
        """Truncate the newest snapshot: resume from the previous one."""
        baseline = _trainer(split, _config()).train().digest()
        ckpt_dir = str(tmp_path / "torn")
        _trainer(split, _config(checkpoint_dir=ckpt_dir,
                                checkpoint_every=1)).train()
        files = self._snapshot_files(ckpt_dir)
        assert len(files) == 2  # keep=2 of the EPOCHS snapshots
        torn = open(files[-1], "rb").read()[:100]
        with open(files[-1], "wb") as fh:
            fh.write(torn)

        meta, state = load_checkpoint(ckpt_dir)
        assert meta["rolled_back"] == 1
        assert meta["epoch"] == EPOCHS - 2
        resumed = rebuild_trainer(meta, state, split).train()
        assert resumed.digest() == baseline

    def test_every_snapshot_corrupt_raises(self, split, tmp_path):
        ckpt_dir = str(tmp_path / "corrupt")
        _trainer(split, _config(checkpoint_dir=ckpt_dir,
                                checkpoint_every=1)).train()
        for path in self._snapshot_files(ckpt_dir):
            with open(path, "wb") as fh:
                fh.write(b"not a snapshot")
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(ckpt_dir)


    def test_manifest_bit_flips_raise_only_typed_errors(self, split,
                                                        tmp_path):
        """200 seeded single-bit flips of ``manifest.json``: each one
        loads or raises a :class:`CheckpointError` — never the parser's
        ``UnicodeDecodeError`` or ``KeyError``.  The first flip of each
        outcome also goes through ``repro.run(resume=)``."""
        pristine = tmp_path / "pristine"
        _trainer(split, _config(checkpoint_dir=str(pristine),
                                checkpoint_every=1)).train()
        raw = (pristine / "manifest.json").read_bytes()
        witnesses = {}
        bits = np.random.default_rng(0).choice(len(raw) * 8, size=200,
                                               replace=False)
        for bit in bits:
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            (pristine / "manifest.json").write_bytes(bytes(flipped))
            try:
                load_checkpoint(str(pristine))
                outcome = "loaded"
            except CheckpointError as exc:
                outcome = type(exc).__name__
            witnesses.setdefault(outcome, bytes(flipped))
        assert {"loaded", "CheckpointCorruptError"} <= set(witnesses)
        for i, (outcome, manifest) in enumerate(sorted(witnesses.items())):
            ckpt_dir = tmp_path / f"witness{i}"
            shutil.copytree(pristine, ckpt_dir)
            (ckpt_dir / "manifest.json").write_bytes(manifest)
            if outcome == "loaded":
                repro.run(split=split, resume=str(ckpt_dir))
            else:
                with pytest.raises(CheckpointError):
                    repro.run(split=split, resume=str(ckpt_dir))


class TestTypedErrors:
    @pytest.mark.parametrize("component, key, array", [
        ("meter.0000", "meter.0000.epochs", "meter.0000.epochs"),
        ("workers", "worker.0001.payload", "worker.0001.payload"),
        ("sync", "m.6", "server.optim.m.6"),
        ("faults", "failure_rng", None),  # a meta field, not an array
    ])
    def test_incomplete_snapshot_names_component_and_key(
            self, split, tmp_path, component, key, array):
        """A checksum-valid snapshot that lacks something a component
        needs is corrupt, and says whose what — never a bare
        ``KeyError``, never a trainer handed back half-restored."""
        ckpt_dir = str(tmp_path / "ck")
        _trainer(split, _config("ps", checkpoint_dir=ckpt_dir,
                                checkpoint_every=1)).train()
        meta, state = load_checkpoint(ckpt_dir)
        if array is not None:
            del state[array]
        else:
            stored = json.loads(str(state["meta_json"]))
            del stored["faults"][key]
            state["meta_json"] = np.array(json.dumps(stored))
        with pytest.raises(CheckpointCorruptError) as err:
            rebuild_trainer(meta, state, split)
        assert repr(component) in str(err.value)
        assert repr(key) in str(err.value)

    def test_nonexistent_dir(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError, match="does not exist"):
            load_checkpoint(str(tmp_path / "never-written"))

    def test_foreign_dir(self, tmp_path):
        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "data.txt").write_text("hello")
        with pytest.raises(CheckpointNotFoundError,
                           match="not a repro checkpoint directory"):
            load_checkpoint(str(foreign))

    def test_session_resume_propagates_not_found(self, split, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            Session(split).resume(str(tmp_path / "missing"))

    def test_wrong_split_is_rejected(self, split, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        _trainer(split, _config(checkpoint_dir=ckpt_dir,
                                checkpoint_every=1)).train()
        rng = np.random.default_rng(SEED + 1)
        other = split_edges(synthetic_lp_graph(
            num_nodes=150, target_edges=520, feature_dim=8,
            num_communities=4, rng=rng), rng=rng)
        meta, state = load_checkpoint(ckpt_dir)
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            rebuild_trainer(meta, state, other)

    def test_wrong_framework_or_workers_rejected(self, split, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        _trainer(split, _config(checkpoint_dir=ckpt_dir,
                                checkpoint_every=1)).train()
        meta, state = load_checkpoint(ckpt_dir)
        with pytest.raises(CheckpointMismatchError, match="framework"):
            rebuild_trainer(meta, state, split, framework="psgd_pa")
        with pytest.raises(CheckpointMismatchError, match="workers"):
            rebuild_trainer(meta, state, split, workers=5)

    def test_run_resume_rejects_overrides(self, split, tmp_path):
        with pytest.raises(ValueError, match="not allowed"):
            repro.run(split=split, resume=str(tmp_path / "any"),
                      epochs=9)

    def test_export_before_train_raises(self, split):
        with pytest.raises(SessionStateError, match="train"):
            Session(split).export()

    def test_score_before_train_raises(self, split):
        with pytest.raises(SessionStateError, match="train"):
            Session(split).score(np.array([[0, 1]]))

    def test_checkpoint_every_validated(self, split):
        with pytest.raises(ValueError, match="checkpoint_every"):
            _config(checkpoint_dir="x", checkpoint_every=0)
        with pytest.raises(ValueError, match="every"):
            Session(split).checkpoint("x", every=0)


class TestSessionResume:
    def test_session_checkpoint_resume_and_export(self, split, tmp_path):
        """The whole front-door flow: checkpoint, resume, export."""
        ckpt_dir = str(tmp_path / "sess")
        trained = (Session(split).partition(2)
                   .configure(hidden_dim=8, num_layers=2, fanouts=(4, 4),
                              batch_size=64, epochs=EPOCHS, seed=SEED,
                              eval_every=EPOCHS, observe=False)
                   .checkpoint(ckpt_dir, every=1))
        result = trained.train()

        resumed = Session(split).resume(ckpt_dir)
        assert resumed.digest() == result.digest()

        restored = Session(split).restore(ckpt_dir)
        assert restored.export().checksum() == \
            trained.export().checksum()

    def test_run_resume_continues(self, split, tmp_path):
        ckpt_dir = str(tmp_path / "run")
        config_kwargs = dict(hidden_dim=8, num_layers=2, fanouts=(4, 4),
                             batch_size=64, epochs=EPOCHS, seed=SEED,
                             eval_every=EPOCHS, observe=False)
        baseline = repro.run(split=split, workers=2,
                             **config_kwargs)
        repro.run(split=split, workers=2, checkpoint_dir=ckpt_dir,
                  checkpoint_every=1, **config_kwargs)
        resumed = repro.run(split=split, resume=ckpt_dir)
        assert resumed.digest() == baseline.digest()


class TestR110PersistenceLint:
    MODPATH = "repro/checkpoint/newmod.py"

    def _r110(self, code, modpath=MODPATH):
        return [f for f in lint_source(code, modpath)
                if f.rule_id == "R110"]

    def test_flags_write_mode_open(self):
        code = 'fh = open(p, "w")\n'
        assert len(self._r110(code)) == 1
        assert "atomic" in self._r110(code)[0].message

    def test_flags_numpy_save_and_raw_state_dict(self):
        code = ("np.save(p, arr)\n"
                "np.savez_compressed(p, **payload)\n"
                "save_state_dict(payload, p)\n"
                "serialize.save_state_dict(payload, p)\n")
        assert len(self._r110(code)) == 4

    def test_read_open_and_atomic_helpers_pass(self):
        code = ('fh = open(p, "r")\n'
                "fh2 = open(p)\n"
                "atomic_save_state_dict(payload, p)\n"
                "atomic_write_json(p, doc)\n")
        assert self._r110(code) == []

    def test_io_module_and_outside_paths_exempt(self):
        code = 'fh = open(p, "wb")\n'
        assert self._r110(code, "repro/checkpoint/io.py") == []
        assert self._r110(code, "repro/graph/io.py") == []
        assert len(self._r110(code, "repro/serve/artifact.py")) == 1
