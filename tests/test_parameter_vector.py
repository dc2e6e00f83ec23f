"""One flat parameter vector per replica, pinned.

The optimizers and the two barrier means are held bit for bit to the
per-parameter reference loops in ``conftest.py``; a checkpoint written
by an earlier build (``data/checkpoint_resume_v1``) must resume to the
digest of the run it was cut from; and every parameter stays a view of
its replica's vectors through each path that writes weights.
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    OracleAdam,
    OracleSGD,
    oracle_average_gradients,
    oracle_average_models,
)
from repro.checkpoint import load_checkpoint, rebuild_trainer
from repro.checkpoint.io import deserialize_state, serialize_state
from repro.checkpoint.store import CheckpointStore
from repro.core.frameworks import FRAMEWORKS, build_trainer
from repro.distributed import TrainConfig, average_gradients, average_models
from repro.distributed import trainer as trainer_mod
from repro.distributed.backends import WorkerHost, wipe_worker
from repro.faults import FaultEvent, FaultPlan
from repro.graph import split_edges, synthetic_lp_graph
from repro.nn import Adam, SGD, Parameter, build_model
from repro.nn.module import ParameterVector

STEPS = 50


def _draws(rng, shapes, lacking):
    """One step's gradients: every array holds ``-0.0`` entries (the
    bits ``relu``'s backward gives a negative upstream gradient), and
    parameter ``lacking`` has none on odd steps."""
    out = []
    for i, shape in enumerate(shapes):
        if i == lacking:
            out.append(None)
            continue
        g = rng.standard_normal(shape)
        g[rng.random(shape) < 0.2] = -0.0
        out.append(g)
    return out


def _bits(arrays):
    return [a.tobytes() for a in arrays]


class TestOptimizersMatchTheOracle:
    @pytest.mark.parametrize("make, oracle", [
        (lambda ps: Adam(ps, lr=0.01), lambda ds: OracleAdam(ds, lr=0.01)),
        (lambda ps: Adam(ps, lr=0.01, weight_decay=0.1),
         lambda ds: OracleAdam(ds, lr=0.01, weight_decay=0.1)),
        (lambda ps: SGD(ps, lr=0.05), lambda ds: OracleSGD(ds, lr=0.05)),
        (lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=0.01),
         lambda ds: OracleSGD(ds, lr=0.05, momentum=0.9,
                              weight_decay=0.01)),
    ], ids=["adam", "adam-wd", "sgd", "sgd-momentum-wd"])
    def test_fifty_steps_are_byte_equal(self, make, oracle):
        model = build_model("sage", 6, 5, num_layers=2, seed=4)
        params = model.parameters()
        ref = oracle([p.data.copy() for p in params])
        optimizer = make(params)
        shapes = [p.data.shape for p in params]
        rng = np.random.default_rng(9)
        for step in range(STEPS):
            grads = _draws(rng, shapes, lacking=2 if step % 2 else None)
            optimizer.zero_grad()
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            optimizer.step()
            ref.step(grads)
            assert _bits(p.data for p in params) == _bits(ref.datas), step
        state = optimizer.state_dict()
        if isinstance(ref, OracleAdam):
            assert int(state["step_count"]) == STEPS
            moments = [("m", ref.m), ("v", ref.v)]
        else:
            moments = [("velocity", ref.velocity)]
        for name, arrays in moments:
            assert _bits(state[f"{name}.{i}"] for i in range(len(params))) \
                == _bits(arrays)

    def test_a_parameter_list_keeps_its_own_moments(self):
        """Two optimizers over parts of one model step only their own
        parameters."""
        model = build_model("sage", 6, 5, num_layers=2, seed=4)
        params = model.parameters()
        head, tail = params[:3], params[3:]
        before = [p.data.copy() for p in params]
        optimizer = Adam(head, lr=0.1)
        for p in params:
            p.grad = np.ones_like(p.data)
        optimizer.step()
        assert _bits(p.data for p in tail) == _bits(before[3:])
        assert all((p.data != b).all() for p, b in zip(head, before))

    def test_a_lone_parameter(self):
        p = Parameter(np.array([1.0, -2.0]))
        ref = OracleAdam([p.data.copy()], lr=0.1)
        optimizer = Adam([p], lr=0.1)
        for g in ([0.5, -0.0], None, [-1.0, 2.0]):
            grads = [None if g is None else np.array(g)]
            optimizer.zero_grad()
            p.grad = grads[0]
            optimizer.step()
            ref.step(grads)
        assert p.data.tobytes() == ref.datas[0].tobytes()


def _named_draws(rng, names_shapes, lacking):
    grads = {}
    for i, (name, shape) in enumerate(names_shapes):
        if i in lacking:
            grads[name] = None
            continue
        # Gradients arrive in the replicas' float32.
        g = rng.standard_normal(shape).astype(np.float32)
        g[rng.random(shape) < 0.3] = -0.0
        grads[name] = g
    return grads


#: The replica layout the named draws below are flattened through.
_MODEL = build_model("sage", 6, 5, num_layers=2, seed=4)
_NAMES = [name for name, _ in _MODEL.named_parameters()]


def _flat_gradient_mean(grads, participating=None):
    """``average_gradients`` on named per-worker gradients: each dict
    flattened to a ``(vector, presence)`` pair, the mean named again."""
    vector = _MODEL.vector
    flat = [None if g is None else (
        vector.join([np.zeros(p.data.shape) if g[name] is None else g[name]
                     for name, p in zip(_NAMES, vector.params)]),
        np.array([g[name] is not None for name in _NAMES]))
        for g in grads]
    mean = average_gradients(flat, participating)
    if mean is None:
        return None
    values, present = mean
    return {name: part if ok else None for name, part, ok
            in zip(_NAMES, vector.split(values), present)}


def _flat_model_mean(states, participating=None):
    """``average_models`` on named per-worker weights, flattened."""
    vector = _MODEL.vector
    mean = average_models(
        [None if sd is None else vector.join([sd[n] for n in _NAMES])
         for sd in states], participating)
    return None if mean is None else dict(zip(_NAMES, vector.split(mean)))


def _same(a, b):
    assert (a is None) == (b is None)
    if a is None:
        return
    assert list(a) == list(b)
    for name in a:
        assert (a[name] is None) == (b[name] is None), name
        if a[name] is not None:
            assert a[name].tobytes() == b[name].tobytes(), name


class TestMeansMatchTheOracle:
    """200 seeded draws of 4 workers each: who participates, and which
    parameters each worker has a gradient for, vary per draw."""

    @pytest.fixture(scope="class")
    def layout(self):
        model = build_model("sage", 6, 5, num_layers=2, seed=4)
        return [(name, p.data.shape) for name, p in model.named_parameters()]

    def test_gradient_means_are_byte_equal(self, layout):
        rng = np.random.default_rng(21)
        for draw in range(200):
            grads = []
            for _ in range(4):
                lacking = set(np.flatnonzero(rng.random(len(layout)) < 0.2))
                grads.append(None if rng.random() < 0.15
                             else _named_draws(rng, layout, lacking))
            participating = list(rng.random(4) < 0.8)
            for mask in (None, participating):
                _same(_flat_gradient_mean(grads, mask),
                      oracle_average_gradients(grads, mask))

    def test_a_slice_only_some_workers_have(self, layout):
        rng = np.random.default_rng(5)
        grads = [_named_draws(rng, layout, {0}),
                 _named_draws(rng, layout, {0, 1}),
                 _named_draws(rng, layout, {0, 1, 2})]
        mean = _flat_gradient_mean(grads)
        _same(mean, oracle_average_gradients(grads))
        assert mean[layout[0][0]] is None
        assert mean[layout[1][0]] is not None

    def test_model_means_are_byte_equal(self, layout):
        rng = np.random.default_rng(22)
        for draw in range(200):
            states = [None if rng.random() < 0.15 else
                      {name: rng.standard_normal(shape).astype(np.float32)
                       for name, shape in layout} for _ in range(4)]
            participating = list(rng.random(4) < 0.8)
            for mask in (None, participating):
                _same(_flat_model_mean(states, mask),
                      oracle_average_models(states, mask))


# -- the on-disk checkpoint format -------------------------------------

#: ``data/checkpoint_resume_v1``: the store of the run below, cut at
#: the end of epoch 0 (one snapshot) by a float64 build, and the digest
#: its resume trains to: the stored float64 weights and moments load
#: narrowed to float32 and the remaining epochs run in float32 (the
#: float64 build's uninterrupted run read ``9d820e61…``).
PINNED_DIR = Path(__file__).parent / "data" / "checkpoint_resume_v1"
PINNED_DIGEST = ("52c9298fd3e6656e8f85f6b694f4eb33"
                 "f72dc860b6b9e42b8dbe9c2be65d942d")


def _pinned_split():
    """The workload the pinned store was written on.  It was trained as
    ``build_trainer(FRAMEWORKS["splpg"], split, 2, TrainConfig(
    hidden_dim=4, num_layers=2, fanouts=(3, 3), batch_size=32,
    epochs=3, seed=11, eval_every=1, observe=False,
    checkpoint_dir=..., checkpoint_every=1), rng=default_rng(11))``
    (Adam, barrier sync, serial backend), with a round hook raising
    at epoch 1, round 0."""
    rng = np.random.default_rng(11)
    graph = synthetic_lp_graph(num_nodes=60, target_edges=180,
                               feature_dim=4, num_communities=2, rng=rng)
    return split_edges(graph, rng=rng)


def _float64_store(source, target):
    """Copy the newest snapshot of ``source`` to ``target`` with every
    float32 array, inside the worker payloads too, widened to float64:
    the store a float64 build would have written of the same run."""
    def widen(arrays):
        return {key: value.astype(np.float64)
                if value.dtype == np.float32 else value
                for key, value in arrays.items()}

    info, state, _ = CheckpointStore(source).latest()
    for key in [k for k in state if k.endswith(".payload")]:
        if state[key].size:
            payload = widen(deserialize_state(state[key].tobytes()))
            state[key] = np.frombuffer(serialize_state(payload),
                                       dtype=np.uint8)
    widened = widen(state)
    assert any(value.dtype == np.float64 for key, value in widened.items()
               if key.startswith("best."))
    CheckpointStore(target).write(widened, epoch=info.epoch, rnd=info.round)


class TestPinnedCheckpoint:
    def test_a_float64_store_resumes_to_the_float32_run(self, tmp_path):
        """A store whose weights, moments and best snapshot are float64
        loads into the float32 replicas and resumes to the digest of
        the float32 run it was cut from (float32 values widen and
        narrow back exactly)."""
        def build(directory=None):
            config = TrainConfig(
                hidden_dim=4, num_layers=2, fanouts=(3, 3), batch_size=32,
                epochs=3, seed=11, eval_every=1, observe=False,
                checkpoint_dir=directory,
                checkpoint_every=1 if directory else 0)
            return build_trainer(FRAMEWORKS["splpg"], _pinned_split(), 2,
                                 config, rng=np.random.default_rng(11))

        uninterrupted = build().train().digest()

        def hook(trainer, epoch, rnd):
            if (epoch, rnd) == (2, 0):
                raise RuntimeError("crash")

        previous = trainer_mod.set_round_hook(hook)
        try:
            with pytest.raises(RuntimeError, match="crash"):
                build(str(tmp_path / "store")).train()
        finally:
            trainer_mod.set_round_hook(previous)
        _float64_store(tmp_path / "store", tmp_path / "wide")
        meta, state = load_checkpoint(tmp_path / "wide")
        trainer = rebuild_trainer(meta, state, _pinned_split())
        assert trainer.workers[0].model.vector.values.dtype == np.float32
        assert trainer.train().digest() == uninterrupted

    def test_resumes_to_the_uninterrupted_digest(self, tmp_path):
        store = tmp_path / "store"
        shutil.copytree(PINNED_DIR, store)
        meta, state = load_checkpoint(store)
        assert (meta["epoch"], meta["round"]) == (0, 5)
        result = rebuild_trainer(meta, state, _pinned_split()).train()
        assert result.digest() == PINNED_DIGEST

    def test_new_snapshots_keep_the_pinned_keys(self, tmp_path):
        """What a resumed run writes has the pinned store's keys: model
        weights by dotted name, Adam moments by parameter index."""
        store = tmp_path / "store"
        shutil.copytree(PINNED_DIR, store)
        _, pinned = load_checkpoint(store)
        rebuild_trainer(*load_checkpoint(store), _pinned_split()).train()
        _, written = load_checkpoint(store)
        assert sorted(written) == sorted(pinned)
        for key in ("worker.0000.payload", "worker.0001.payload"):
            old = deserialize_state(pinned[key].tobytes())
            new = deserialize_state(written[key].tobytes())
            assert sorted(new) == sorted(old)
            assert "model/encoder.convs.0.fc_self.weight" in new
            assert {"optim/m.0", "optim/v.11", "optim/step_count",
                    "optim/lr"} <= set(new)
            for name, value in new.items():
                # The pinned float64 weights and moments resume as
                # float32; the scalars keep their dtype.
                weights = name.startswith(("model/", "optim/m.", "optim/v."))
                assert value.dtype == (np.float32 if weights
                                       else old[name].dtype), name
                assert value.shape == old[name].shape, name


# -- parameters stay views of their replica's vectors -------------------


def assert_views(model):
    """Every parameter of ``model`` is bound to its replica's vector:
    ``data`` (and ``grad``, when set) share its memory."""
    vector = model.vector
    assert [id(p) for p in model.parameters()] == \
        [id(p) for p in vector.params]
    for p in vector.params:
        assert p.vector is vector
        assert np.shares_memory(p.data, vector.values)
        assert p.grad is None or np.shares_memory(p.grad, vector.grads)


def _views_hold(model) -> bool:
    try:
        assert_views(model)
    except AssertionError:
        return False
    return True


def _tiny_split():
    rng = np.random.default_rng(3)
    graph = synthetic_lp_graph(num_nodes=80, target_edges=260,
                               feature_dim=4, num_communities=2, rng=rng)
    return split_edges(graph, rng=rng)


def _tiny_trainer(split, **overrides):
    config = dict(hidden_dim=4, num_layers=2, fanouts=(3, 3),
                  batch_size=32, epochs=2, seed=3, observe=False)
    config.update(overrides)
    return build_trainer(FRAMEWORKS["splpg"], split, 2,
                         TrainConfig(**config),
                         rng=np.random.default_rng(3))


class TestParametersStayViews:
    def test_after_backward_and_load_state_dict(self):
        model = build_model("sage", 6, 5, num_layers=2, seed=4)
        optimizer = Adam(model.parameters())
        assert optimizer.vector is model.vector
        other = build_model("sage", 6, 5, num_layers=2, seed=5)
        model.load_state_dict(other.state_dict())
        assert_views(model)
        assert model.vector.values.tobytes() == \
            other.vector.values.tobytes()
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        optimizer.step()
        assert_views(model)
        optimizer.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_a_parameter_binds_once(self):
        model = build_model("sage", 6, 5, num_layers=2, seed=4)
        model.vector
        with pytest.raises(ValueError, match="one vector"):
            ParameterVector(model.parameters()[:2])

    def test_after_ps_pulls(self):
        trainer = _tiny_trainer(_tiny_split(), sync="ps", max_staleness=0)
        trainer.train()
        assert trainer.sync_strategy.pulls > 0
        for model in [w.model for w in trainer.workers] + \
                [trainer.sync_strategy.model]:
            assert_views(model)

    def test_after_wipe_and_restore_replay(self):
        split = _tiny_split()
        trainer = _tiny_trainer(split)
        wipe_worker(trainer.workers[1])
        assert_views(trainer.workers[1].model)
        assert not trainer.workers[1].model.vector.values.any()
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", epoch=1, round=1, worker=1),))
        trainer = _tiny_trainer(split, fault_plan=plan, recovery="restore",
                                checkpoint_every=1)
        result = trainer.train()
        assert result.faults["restores"] >= 1
        for worker in trainer.workers:
            assert_views(worker.model)

    @pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                        reason="the process backend forks")
    def test_in_a_respawned_child(self, monkeypatch):
        """A SIGKILLed child respawns from the coordinator's replica;
        probed over the pipe, its parameters are views too."""
        execute = WorkerHost.execute

        def probing(host, msg):
            if msg[0] == "views":
                return ("views", _views_hold(
                    host.trainer.workers[host.part].model))
            return execute(host, msg)

        monkeypatch.setattr(WorkerHost, "execute", probing)
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", epoch=0, round=1, worker=1),))
        trainer = _tiny_trainer(_tiny_split(), backend="process",
                                fault_plan=plan, recovery="drop",
                                fault_timeout_s=15.0)
        probes = []

        def hook(trainer, epoch, rnd):
            if (epoch, rnd) == (1, 1):
                backend = trainer.backend
                for i in range(len(trainer.workers)):
                    backend._raw_send(i, ("views",))
                    probes.append(backend._raw_recv(i, "views"))

        previous = trainer_mod.set_round_hook(hook)
        try:
            result = trainer.train()
        finally:
            trainer_mod.set_round_hook(previous)
        assert result.faults["respawns"] >= 1
        assert probes == [("views", True), ("views", True)]
