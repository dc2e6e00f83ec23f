"""State closure by construction.

``DistributedTrainer.components()`` is the one declared list of
stateful participants; :mod:`repro.checkpoint.state` loops over it and
knows nothing else.  Two things keep that honest:

* an object-graph walk from a trained trainer collects every
  ``numpy.random.Generator`` and :class:`repro.nn.optim.Optimizer` it
  can reach and fails, naming the attribute path, on any that the
  declared components do not bring back (perturb it, restore every
  component from a pristine twin's capture, compare) — a new RNG or
  optimizer that nobody captures cannot land silently;
* the exact key set and meta fields of a non-``llcg`` checkpoint are
  pinned against a literal list taken from the parent commit's output,
  which is what "a parent-written checkpoint still resumes" means here.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.checkpoint import load_checkpoint
from repro.core.frameworks import FRAMEWORKS, build_trainer
from repro.distributed import TrainConfig
from repro.distributed import trainer as trainer_mod
from repro.graph import split_edges, synthetic_lp_graph
from repro.nn.optim import Optimizer

SEED = 5
STATEFUL = (np.random.Generator, Optimizer)
#: Leaves the walk does not open: no RNG or optimizer lives inside.
_OPAQUE = (np.ndarray, np.generic, str, bytes, int, float, complex, bool,
           type(None), type)


@pytest.fixture(scope="module")
def split():
    rng = np.random.default_rng(SEED)
    graph = synthetic_lp_graph(num_nodes=150, target_edges=520,
                               feature_dim=8, num_communities=4, rng=rng)
    return split_edges(graph, rng=rng)


def _build(split, framework, sync, **overrides):
    config = TrainConfig(hidden_dim=8, num_layers=2, fanouts=(4, 4),
                         batch_size=64, epochs=2, seed=SEED, sync=sync,
                         observe=True, **overrides)
    return build_trainer(FRAMEWORKS[framework], split, 2, config,
                         rng=np.random.default_rng(SEED))


def _children(obj):
    """``(path suffix, child)`` for everything ``obj`` holds."""
    if isinstance(obj, dict):
        return [(f"[{key!r}]", value) for key, value in obj.items()]
    if isinstance(obj, (list, tuple, set, frozenset, deque)):
        return [(f"[{i}]", value) for i, value in enumerate(obj)]
    names = list(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        names += [n for n in getattr(klass, "__slots__", ())
                  if hasattr(obj, n)]
    return [(f".{name}", getattr(obj, name)) for name in names]


def reachable_state(trainer) -> dict:
    """``{attribute path: object}`` for every RNG / optimizer reachable
    from ``trainer`` (breadth first, so each is named by a shortest
    path)."""
    found, seen = {}, {id(trainer)}
    queue = deque([("trainer", trainer)])
    while queue:
        path, obj = queue.popleft()
        for suffix, child in _children(obj):
            if isinstance(child, _OPAQUE) or id(child) in seen:
                continue
            seen.add(id(child))
            if isinstance(child, STATEFUL):
                found[path + suffix] = child
            else:
                queue.append((path + suffix, child))
    return found


def _state(obj):
    if isinstance(obj, np.random.Generator):
        return obj.bit_generator.state
    return {key: np.asarray(value).tolist()
            for key, value in obj.state_dict().items()}


def _perturb(obj) -> None:
    if isinstance(obj, np.random.Generator):
        obj.random(3)
    else:
        obj.load_state_dict({key: value + 1
                             for key, value in obj.state_dict().items()})


class _Stop(RuntimeError):
    """Ends a training run once its round hook has done its work."""


def _at_second_epoch(trainer, action) -> None:
    """Train one epoch, run ``action(trainer)`` from the round hook at
    the top of the next (the trainer is bound there), stop."""

    def hook(bound, epoch, rnd):
        if epoch == 1:
            action(bound)
            raise _Stop

    previous = trainer_mod.set_round_hook(hook)
    try:
        with pytest.raises(_Stop):
            trainer.train()
    finally:
        trainer_mod.set_round_hook(previous)


@pytest.mark.parametrize("framework, sync", [
    ("llcg", "grad"), ("splpg", "ps"), ("psgd_pa", "async"),
    ("vertex_cut", "local_sgd")])
def test_every_reachable_rng_and_optimizer_is_owned(split, framework, sync):
    twin = {}

    def record(trainer):
        twin["captures"] = [component.capture()
                            for _, component in trainer.components()]
        twin["states"] = {path: _state(obj) for path, obj
                          in reachable_state(trainer).items()}

    _at_second_epoch(_build(split, framework, sync), record)
    assert len(twin["states"]) >= 6, sorted(twin["states"])

    unowned = []

    def perturb_and_restore(trainer):
        found = reachable_state(trainer)
        assert {p: _state(o) for p, o in found.items()} == twin["states"]
        for obj in found.values():
            _perturb(obj)
        for (_, component), saved in zip(trainer.components(),
                                         twin["captures"]):
            component.restore(*saved)
        after = {path: _state(obj) for path, obj
                 in reachable_state(trainer).items()}
        unowned.extend(path for path, want in twin["states"].items()
                       if after.get(path) != want)

    _at_second_epoch(_build(split, framework, sync), perturb_and_restore)
    assert unowned == [], (
        f"{framework}/{sync}: no component of "
        "DistributedTrainer.components() restores " + ", ".join(unowned))


#: What the parent commit (1fc5678) writes for the run below — every
#: array key and every meta field, nested ones dotted.
PARENT_ARRAY_KEYS = [
    "best.encoder.convs.0.fc_neigh.weight",
    "best.encoder.convs.0.fc_self.bias",
    "best.encoder.convs.0.fc_self.weight",
    "best.encoder.convs.1.fc_neigh.weight",
    "best.encoder.convs.1.fc_self.bias",
    "best.encoder.convs.1.fc_self.weight", "best.predictor.mlp.layers.0.bias",
    "best.predictor.mlp.layers.0.weight", "best.predictor.mlp.layers.1.bias",
    "best.predictor.mlp.layers.1.weight", "best.predictor.mlp.layers.2.bias",
    "best.predictor.mlp.layers.2.weight", "meta_json", "meter.0000.current",
    "meter.0000.epochs", "meter.0001.current", "meter.0001.epochs",
    "server.model.encoder.convs.0.fc_neigh.weight",
    "server.model.encoder.convs.0.fc_self.bias",
    "server.model.encoder.convs.0.fc_self.weight",
    "server.model.encoder.convs.1.fc_neigh.weight",
    "server.model.encoder.convs.1.fc_self.bias",
    "server.model.encoder.convs.1.fc_self.weight",
    "server.model.predictor.mlp.layers.0.bias",
    "server.model.predictor.mlp.layers.0.weight",
    "server.model.predictor.mlp.layers.1.bias",
    "server.model.predictor.mlp.layers.1.weight",
    "server.model.predictor.mlp.layers.2.bias",
    "server.model.predictor.mlp.layers.2.weight", "server.optim.lr",
    "server.optim.m.0", "server.optim.m.1", "server.optim.m.10",
    "server.optim.m.11", "server.optim.m.2", "server.optim.m.3",
    "server.optim.m.4", "server.optim.m.5", "server.optim.m.6",
    "server.optim.m.7", "server.optim.m.8", "server.optim.m.9",
    "server.optim.step_count", "server.optim.v.0", "server.optim.v.1",
    "server.optim.v.10", "server.optim.v.11", "server.optim.v.2",
    "server.optim.v.3", "server.optim.v.4", "server.optim.v.5",
    "server.optim.v.6", "server.optim.v.7", "server.optim.v.8",
    "server.optim.v.9", "worker.0000.payload", "worker.0001.payload",
]
PARENT_META_FIELDS = [
    "best", "best.epoch", "best.has_state",
    "best.val", "build_knobs", "config", "epoch", "evaluator_rng", "faults",
    "faults.counts", "faults.dropped", "faults.failure_rng", "faults.live",
    "faults.model_sync_excluded", "faults.outage_rounds_left",
    "faults.retry_attempts", "framework", "history", "num_workers", "obs",
    "obs.metrics", "obs.now_s", "positive_mode", "replica_sync_total",
    "round", "schema", "seed", "server", "server.pulls", "server.pushes",
    "server.staleness_max", "server.staleness_sum", "server.version",
    "server.worker_version", "split_fingerprint",
]


def _meta_fields(meta, nested=("best", "faults", "server", "obs")):
    fields = []
    for key, value in meta.items():
        fields.append(key)
        if key in nested and isinstance(value, dict):
            fields += [f"{key}.{sub}" for sub in value]
    return sorted(fields)


def test_on_disk_layout_is_the_parents(split, tmp_path):
    """A non-``llcg`` checkpoint has exactly the parent's keys and meta
    fields (``correction`` is the one, absent-tolerant, addition, and
    only ``llcg`` writes it)."""
    ckpt_dir = str(tmp_path / "ck")
    _build(split, "splpg", "ps", checkpoint_dir=ckpt_dir).train()
    meta, state = load_checkpoint(ckpt_dir)
    for added_on_load in ("dir", "rolled_back"):
        del meta[added_on_load]
    assert sorted(state) == PARENT_ARRAY_KEYS
    assert _meta_fields(meta) == PARENT_META_FIELDS
