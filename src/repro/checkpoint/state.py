"""Capture and restore of full trainer state for exact resume.

A session checkpoint is one array state dict (npz codec) written
through the :class:`~repro.checkpoint.store.CheckpointStore`.  This
module writes only its **identity header** into ``meta_json`` — schema,
framework, worker count, the full ``TrainConfig`` (JSON form), build
knobs, workload fingerprint — and then loops over
``trainer.components()``: each stateful participant of a run answers
``capture() -> (meta entries, named arrays)`` / ``restore(meta,
arrays)`` for its own state under its own on-disk names, so no state
format is known by two modules.  The components, by the name
``components()`` (and a :class:`CheckpointCorruptError`) gives them,
and what each writes:

* ``workers`` — ``worker.NNNN.payload``
* ``meter.NNNN`` — ``meter.NNNN.epochs``, ``meter.NNNN.current``
* ``loop`` — meta ``epoch round history best``; ``best.*``
* ``evaluator`` — meta ``evaluator_rng``
* ``faults`` — meta ``faults``
* ``sync`` — meta ``server replica_sync_total``; ``server.model.*``,
  ``server.optim.*``
* ``correction`` (LLCG only) — meta ``correction``; ``correction.optim.*``
* ``obs`` (observed runs; else meta ``obs`` is ``None``) — meta ``obs``

A worker payload is :func:`worker_state_bytes` (model, optimizer
moments, RNG stream); the codec lives here because the ``restore``
recovery policy's in-memory restore points are the same bytes.  A new
stateful component grows the two methods and a line in
``DistributedTrainer.components()``; ``tests/test_state_closure.py``
fails on any RNG or optimizer reachable from a trainer that no
component brings back, so closure is enforced rather than promised.

Checkpoints are written at epoch boundaries (every
``TrainConfig.checkpoint_every`` epochs): loaders reshuffle at
``begin_epoch`` from the worker RNG stream, so an epoch boundary plus
the RNG states pins the entire remaining trajectory.  The
:class:`~repro.faults.plan.FaultPlan` and
:class:`~repro.distributed.sync.SyncPlan` need no explicit cursor —
both are keyed by absolute ``(epoch, round)``, so resuming at epoch
``N`` consumes exactly the events at epochs ``>= N``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, fields as dataclass_fields
from typing import Dict, Optional

import numpy as np

from .errors import CheckpointCorruptError, CheckpointMismatchError
from .io import deserialize_state, serialize_state
from .store import CheckpointStore

#: Session-state schema identifier; bump on any layout change.
STATE_SCHEMA = "repro_session_state/v1"
_META_KEY = "meta_json"
#: Key layout of one worker payload (:func:`worker_state_bytes`).
_MODEL_PREFIX = "model/"
_OPTIM_PREFIX = "optim/"
_RNG_KEY = "rng_state_json"
_POS_KEY = "position"


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------


def split_fingerprint(split) -> str:
    """Content hash of an :class:`~repro.graph.splits.EdgeSplit`.

    Covers the training graph (topology + features) and every labeled
    evaluation pair, so a checkpoint can refuse to resume onto a
    different workload (:class:`CheckpointMismatchError`) instead of
    silently diverging.
    """
    graph = split.train_graph
    digest = hashlib.sha256()

    def _feed(name: str, arr: Optional[np.ndarray]) -> None:
        digest.update(name.encode("ascii"))
        if arr is None:
            digest.update(b"none")
            return
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.shape).encode("ascii"))
        digest.update(str(arr.dtype).encode("ascii"))
        digest.update(arr.tobytes())

    _feed("indptr", graph.indptr)
    _feed("indices", graph.indices)
    _feed("features", graph.features)
    _feed("train_pos", split.train_pos)
    _feed("val_pos", split.val_pos)
    _feed("val_neg", split.val_neg)
    _feed("test_pos", split.test_pos)
    _feed("test_neg", split.test_neg)
    return digest.hexdigest()


def config_to_dict(config) -> Dict[str, object]:
    """JSON form of a config dataclass
    (:class:`~repro.distributed.trainer.TrainConfig`, ``StreamConfig``).

    Plan/spec objects serialize through their ``to_dict``; the config's
    ``__post_init__`` canonicalizes them back on rebuild, so
    ``TrainConfig(**config_to_dict(c))`` round-trips exactly.
    """
    out: Dict[str, object] = {}
    for f in dataclass_fields(config):
        value = getattr(config, f.name)
        if hasattr(value, "to_dict"):
            value = value.to_dict()
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------


def strip_prefix(arrays, prefix: str) -> Dict[str, np.ndarray]:
    """The entries of ``arrays`` named ``prefix + name``, keyed by
    ``name`` — how a component picks its own arrays out of a snapshot."""
    return {key[len(prefix):]: value for key, value in arrays.items()
            if key.startswith(prefix)}


def worker_state_bytes(worker, epoch: int, rnd: int) -> bytes:
    """Serialize what rehydrates a worker (duck typed: ``model``,
    ``optimizer``, ``rng``) bit-identically: model ``state_dict``,
    optimizer state (Adam moments + step count), position and RNG
    state.  A worker's loader shuffle, neighbor sampler and negative
    sampler share **one** ``numpy.random.Generator``, so one
    bit-generator state pins its entire remaining random stream.  The
    ``restore`` policy's in-memory restore points and a durable
    checkpoint's ``worker.NNNN.payload`` entries are both these bytes.
    """
    state: Dict[str, np.ndarray] = {}
    for name, value in worker.model.state_dict().items():
        state[_MODEL_PREFIX + name] = value
    for name, value in worker.optimizer.state_dict().items():
        state[_OPTIM_PREFIX + name] = value
    state[_RNG_KEY] = np.array(json.dumps(worker.rng.bit_generator.state))
    state[_POS_KEY] = np.array([epoch, rnd], dtype=np.int64)
    return serialize_state(state)


def load_worker_state(worker, payload: bytes) -> None:
    """Load :func:`worker_state_bytes` output back into ``worker``:
    weights, optimizer moments and random stream are exactly as they
    were when the payload was taken."""
    state = deserialize_state(payload)
    worker.model.load_state_dict(strip_prefix(state, _MODEL_PREFIX))
    worker.optimizer.load_state_dict(strip_prefix(state, _OPTIM_PREFIX))
    worker.rng.bit_generator.state = json.loads(str(state[_RNG_KEY]))


def capture_trainer_state(trainer, *, epoch: Optional[int] = None,
                          rnd: Optional[int] = None
                          ) -> Dict[str, np.ndarray]:
    """Snapshot a bound trainer (at an epoch boundary, or mid-epoch
    from a round hook) into an array dict: the identity header, then
    whatever each of ``trainer.components()`` captures.  ``epoch`` +
    ``rnd`` (together) relabel the snapshot: every component sees that
    position instead of the loop's own for the length of the capture.
    """
    if (epoch is None) != (rnd is None):
        raise ValueError("epoch= and rnd= relabel a snapshot together")
    loop = trainer.loop
    position = loop.epoch, loop.round
    if epoch is not None:
        loop.epoch, loop.round = int(epoch), int(rnd)
    meta = {
        "schema": STATE_SCHEMA,
        "framework": trainer.framework,
        "num_workers": len(trainer.workers),
        "positive_mode": trainer.positive_mode,
        "seed": trainer.config.seed,
        "config": config_to_dict(trainer.config),
        "build_knobs": dict(trainer.build_knobs),
        "split_fingerprint": split_fingerprint(trainer.split),
        "obs": None,
    }
    state: Dict[str, np.ndarray] = {}
    try:
        for _, component in trainer.components():
            entries, arrays = component.capture()
            meta.update(entries)
            state.update(arrays)
    finally:
        loop.epoch, loop.round = position
    state[_META_KEY] = np.array(json.dumps(meta))
    return state


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------


def parse_meta(state: Dict[str, np.ndarray]) -> Dict[str, object]:
    """Extract and validate the ``meta_json`` record of a snapshot."""
    if _META_KEY not in state:
        raise CheckpointCorruptError(
            "snapshot has no meta record: not a session checkpoint")
    meta = json.loads(str(state[_META_KEY]))
    if meta.get("schema") != STATE_SCHEMA:
        raise CheckpointCorruptError(
            f"unsupported session-state schema {meta.get('schema')!r} "
            f"(expected {STATE_SCHEMA!r})")
    return meta


def restore_trainer(trainer, state: Dict[str, np.ndarray]) -> None:
    """Load a snapshot into a freshly built (unbound) trainer: each of
    ``trainer.components()`` restores itself from it, after which
    ``trainer.train()`` continues the run.  A snapshot lacking a key a
    component needs raises :class:`CheckpointCorruptError` naming both;
    the trainer is then half-loaded and must be dropped
    (:func:`rebuild_trainer` never returns one).
    """
    meta = parse_meta(state)
    if meta["num_workers"] != len(trainer.workers):
        raise CheckpointMismatchError(
            f"checkpoint has {meta['num_workers']} workers, the trainer "
            f"{len(trainer.workers)}")
    for name, component in trainer.components():
        try:
            component.restore(meta, state)
        except KeyError as exc:
            raise CheckpointCorruptError(
                f"snapshot is incomplete: component {name!r} found no "
                f"{exc.args[0]!r} in it") from exc
    obs = trainer.observer
    if obs is not None:
        obs.counter("checkpoint.restores").inc(1)
        obs.counter("checkpoint.bytes_read").inc(sum(
            int(p.size) for p in strip_prefix(state, "worker.").values()))


# ----------------------------------------------------------------------
# load / rebuild
# ----------------------------------------------------------------------


def load_checkpoint(path) -> tuple:
    """Read the newest good snapshot under ``path``.

    Returns ``(meta, state)``; ``meta`` additionally carries ``dir``
    (the store location) and ``rolled_back`` (how many torn newer
    entries were skipped).  Raises the typed
    :mod:`~repro.checkpoint.errors` on every failure mode.
    """
    store = CheckpointStore(path)
    info, state, rolled_back = store.latest()
    meta = parse_meta(state)
    if meta["epoch"] != info.epoch or meta["round"] != info.round:
        raise CheckpointCorruptError(
            f"manifest records ({info.epoch}, {info.round}) but the "
            f"snapshot is for ({meta['epoch']}, {meta['round']})")
    meta["dir"] = os.fspath(path)
    meta["rolled_back"] = rolled_back
    return meta, state


#: TrainConfig keys older stores carry, each with the value at which it
#: changed nothing (``lr_decay_every`` only counted under a decay).
_INERT_KEYS = {"dropout": 0.0, "patience": 0, "lr_decay": 1.0,
               "sync_topology": "allreduce"}


def _pop_removed_keys(cfg: Dict[str, object]) -> Optional[dict]:
    """Drop the removed keys from a stored config dict, raising
    :class:`CheckpointMismatchError` on one that held a live value;
    returns the stored ``sync_plan`` (``None`` when absent), which
    :func:`rebuild_trainer` checks against the derived plan."""
    for key, inert in _INERT_KEYS.items():
        if key in cfg and cfg.pop(key) != inert:
            raise CheckpointMismatchError(
                f"checkpoint sets the removed TrainConfig key {key!r} "
                f"to a value other than {inert!r}; this build cannot "
                "resume it")
    cfg.pop("lr_decay_every", None)
    return cfg.pop("sync_plan", None)


def rebuild_trainer(meta, state, split, *,
                    framework: Optional[str] = None,
                    workers: Optional[int] = None):
    """Reconstruct a trainer from :func:`load_checkpoint` output.

    Rebuilds the exact same cluster (config, partitioning, samplers —
    all seeded from the stored config) against ``split``, then restores
    the snapshot into it.  ``framework``/``workers``, when given, must
    match the checkpoint (:class:`CheckpointMismatchError` otherwise) —
    as must ``split``'s fingerprint.  A config key this build removed
    is dropped when it holds its inert value (:data:`_INERT_KEYS`, and
    a ``sync_plan`` of ``None`` or the one the config derives) and
    refused otherwise.  The returned trainer's ``train()`` continues
    the run.
    """
    from ..core.frameworks import build_trainer, framework_spec

    if framework is not None and framework != meta["framework"]:
        raise CheckpointMismatchError(
            f"checkpoint was written by framework "
            f"{meta['framework']!r}, not {framework!r}; resume with the "
            "stored framework")
    if workers is not None and workers != meta["num_workers"]:
        raise CheckpointMismatchError(
            f"checkpoint was written with {meta['num_workers']} "
            f"workers, not {workers}; resume with the stored size")
    fingerprint = split_fingerprint(split)
    if fingerprint != meta["split_fingerprint"]:
        raise CheckpointMismatchError(
            "checkpoint was written for a different workload (split "
            "fingerprint mismatch); resume needs the exact dataset and "
            "split the original run trained on")

    from ..distributed.trainer import TrainConfig

    cfg = dict(meta["config"])
    cfg["checkpoint_dir"] = meta.get("dir", cfg.get("checkpoint_dir"))
    # Stores written before fault plans carry the bare crash
    # probability; it stands for the plan it always compiled to.
    prob = cfg.pop("worker_failure_prob", 0.0)
    if prob:
        from ..faults import FaultPlan
        cfg["fault_plan"] = FaultPlan.from_probability(prob)
    plan = _pop_removed_keys(cfg)
    config = TrainConfig(**cfg)
    if plan is not None:
        from ..distributed.sync import PLANNED_SYNC_MODES, SyncPlan
        derived = (asdict(SyncPlan.for_config(config, meta["num_workers"]))
                   if config.sync in PLANNED_SYNC_MODES else None)
        if derived is None or {key: plan.get(key)
                               for key in derived} != derived:
            raise CheckpointMismatchError(
                "checkpoint sets the removed TrainConfig key 'sync_plan' "
                "to a plan its config does not derive; this build "
                "cannot resume it")
    knobs = meta.get("build_knobs", {})
    trainer = build_trainer(
        framework_spec(meta["framework"]), split, meta["num_workers"],
        config, alpha=float(knobs.get("alpha", 0.15)),
        rng=np.random.default_rng(config.seed),
        sparsifier_kind=str(knobs.get("sparsifier_kind", "approx_er")))
    restore_trainer(trainer, state)
    return trainer
