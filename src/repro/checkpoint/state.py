"""Capture and restore of full trainer state for exact resume.

A session checkpoint is one array state dict (npz codec) written
through the :class:`~repro.checkpoint.store.CheckpointStore`.  It
contains everything a fresh process needs to continue the epoch loop
bit-identically:

* ``meta_json`` — position (epoch, round), the full ``TrainConfig``
  (JSON form), framework name, worker count, workload fingerprint,
  epoch history, best-validation bookkeeping, fault-controller
  counters and RNG states (evaluator + legacy failure stream),
  the sync strategy's entries (ParameterServer version/staleness
  totals, replica-sync total), and the obs metric
  counters + simulated-clock position of observing runs;
* ``worker.NNNN.payload`` — each worker's :func:`worker_state_bytes`
  (model, optimizer moments, RNG bit-generator state);
* ``meter.NNNN.*`` — the per-worker CommMeter ledgers;
* ``best.*`` / ``server.*`` — the best-validation weights and the
  sync strategy's (ParameterServer model/optimizer) arrays, when present.

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
from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, List, Optional

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
    """JSON form of a :class:`~repro.distributed.trainer.TrainConfig`.

    Plan/spec objects serialize through their ``to_dict``;
    ``TrainConfig.__post_init__`` canonicalizes them back on rebuild,
    so ``TrainConfig(**config_to_dict(c))`` round-trips exactly.
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
    worker.model.load_state_dict({
        key[len(_MODEL_PREFIX):]: value for key, value in state.items()
        if key.startswith(_MODEL_PREFIX)})
    worker.optimizer.load_state_dict({
        key[len(_OPTIM_PREFIX):]: value for key, value in state.items()
        if key.startswith(_OPTIM_PREFIX)})
    worker.rng.bit_generator.state = json.loads(str(state[_RNG_KEY]))


def _stats_to_dict(stats) -> Dict[str, object]:
    """JSON form of one :class:`~repro.distributed.trainer.EpochStats`."""
    val = None
    if stats.val is not None:
        val = {"hits": float(stats.val.hits), "auc": float(stats.val.auc),
               "k": int(stats.val.k)}
    return {"epoch": stats.epoch, "mean_loss": stats.mean_loss,
            "comm": stats.comm.to_dict(), "rounds": stats.rounds,
            "mfg_edges": stats.mfg_edges, "val": val}


def _stats_from_dict(d: Dict[str, object]):
    """Rebuild one ``EpochStats`` from :func:`_stats_to_dict` output."""
    from ..distributed.trainer import EpochStats
    from ..distributed.comm import CommRecord
    from ..eval.evaluator import EvalResult

    val = None
    if d["val"] is not None:
        val = EvalResult(hits=float(d["val"]["hits"]),
                         auc=float(d["val"]["auc"]), k=int(d["val"]["k"]))
    return EpochStats(epoch=int(d["epoch"]),
                      mean_loss=float(d["mean_loss"]),
                      comm=CommRecord(**d["comm"]), val=val,
                      rounds=int(d["rounds"]),
                      mfg_edges=int(d["mfg_edges"]))


def _capture_faults(faults) -> Optional[Dict[str, object]]:
    """Serializable fault-controller state (counters + RNG stream).

    ``None`` in (no controller attached yet — e.g. a snapshot taken
    outside ``train()``) means ``None`` out: nothing to restore.
    """
    if faults is None:
        return None
    return {
        "live": list(faults.live),
        "counts": dict(faults.counts),
        "dropped": faults.dropped_contributions,
        "retry_attempts": list(faults._retry_attempts),
        "model_sync_excluded": sorted(faults._model_sync_excluded),
        "outage_rounds_left": faults._outage_rounds_left,
        "failure_rng": faults._failure_rng.bit_generator.state,
    }


def capture_trainer_state(
    trainer,
    *,
    epoch: int,
    rnd: int,
    history=(),
    best_val: float = -1.0,
    best_state: Optional[Dict[str, np.ndarray]] = None,
    best_epoch: int = -1,
    evals_since_best: int = 0,
    faults=None,
) -> Dict[str, np.ndarray]:
    """Snapshot a (bound, mid-``train()``) trainer into an array dict.

    ``epoch``/``rnd`` record the last completed position; the loop
    state arguments mirror ``_train_loop``'s locals.  ``faults``
    defaults to the trainer's live
    :class:`~repro.faults.FaultController`.
    """
    config = trainer.config
    if faults is None:
        faults = trainer.fault_controller
    state: Dict[str, np.ndarray] = {}

    payloads = trainer.backend.snapshot_workers(epoch, rnd)
    for i, payload in enumerate(payloads):
        raw = b"" if payload is None else payload
        state[f"worker.{i:04d}.payload"] = np.frombuffer(raw,
                                                         dtype=np.uint8)
    for i, meter in enumerate(trainer.meters):
        epochs = [[r.feature_bytes, r.structure_bytes, r.sync_bytes]
                  for r in meter.epochs]
        state[f"meter.{i:04d}.epochs"] = np.array(
            epochs, dtype=np.int64).reshape(len(epochs), 3)
        state[f"meter.{i:04d}.current"] = np.array(
            [meter.current.feature_bytes, meter.current.structure_bytes,
             meter.current.sync_bytes], dtype=np.int64)
    if best_state is not None:
        for name, value in best_state.items():
            state[f"best.{name}"] = value

    sync_meta, sync_arrays = trainer.sync_strategy.capture()
    state.update(sync_arrays)

    obs_meta = None
    if trainer.observer is not None:
        obs_meta = {"metrics": trainer.observer.metrics.to_dict(),
                    "now_s": trainer.observer.tracer.now_s}

    meta = {
        "schema": STATE_SCHEMA,
        "epoch": int(epoch),
        "round": int(rnd),
        "framework": trainer.framework,
        "num_workers": len(trainer.workers),
        "positive_mode": trainer.positive_mode,
        "seed": config.seed,
        "config": config_to_dict(config),
        "build_knobs": dict(trainer.build_knobs),
        "split_fingerprint": split_fingerprint(trainer.split),
        "history": [_stats_to_dict(s) for s in history],
        "best": {"val": best_val, "epoch": best_epoch,
                 "evals_since_best": evals_since_best,
                 "has_state": best_state is not None},
        "evaluator_rng": trainer.evaluator.rng.bit_generator.state,
        "faults": _capture_faults(faults),
        **sync_meta,
        "obs": obs_meta,
    }
    state[_META_KEY] = np.array(json.dumps(meta))
    return state


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------


@dataclass
class ResumeState:
    """Loop state ``_train_loop`` re-enters after a restore."""

    epoch: int
    round: int
    history: List[object]
    best_val: float
    best_state: Optional[Dict[str, np.ndarray]]
    best_epoch: int
    evals_since_best: int
    faults: Optional[Dict[str, object]]

    def apply_faults(self, controller) -> None:
        """Restore a fresh :class:`FaultController`'s mutable state."""
        fstate = self.faults
        if fstate is None:
            return
        controller.live = [bool(x) for x in fstate["live"]]
        controller.counts = dict(fstate["counts"])
        controller.dropped_contributions = int(fstate["dropped"])
        controller._retry_attempts = [int(x)
                                      for x in fstate["retry_attempts"]]
        controller._model_sync_excluded = set(
            fstate["model_sync_excluded"])
        controller._outage_rounds_left = int(fstate["outage_rounds_left"])
        controller._failure_rng.bit_generator.state = fstate["failure_rng"]


def _restore_metrics(observer, snapshot: Dict[str, Dict[str, object]]
                     ) -> None:
    """Recreate a metrics registry from its ``to_dict`` snapshot."""
    for name, entry in snapshot.items():
        kind = entry["kind"]
        if kind == "counter":
            observer.counter(name).value = entry["value"]
        elif kind == "gauge":
            observer.gauge(name).set(entry["value"])
        elif kind == "histogram":
            hist = observer.histogram(name, entry["buckets"])
            hist.counts = [int(c) for c in entry["counts"]]
            hist.total = float(entry["sum"])
            hist.count = int(entry["count"])


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


def restore_trainer(trainer, state: Dict[str, np.ndarray]) -> ResumeState:
    """Load a snapshot into a freshly built (unbound) trainer.

    Applies worker model/optimizer/RNG payloads, the evaluator RNG,
    CommMeter ledgers, the sync strategy's state, fault counters' RNG
    and obs metrics; stashes the loop state on ``trainer._resume`` for
    ``_train_loop`` to re-enter at ``epoch + 1``.  Returns the
    :class:`ResumeState`.
    """
    from ..distributed.comm import CommRecord

    meta = parse_meta(state)
    if meta["num_workers"] != len(trainer.workers):
        raise CheckpointMismatchError(
            f"checkpoint has {meta['num_workers']} workers, the trainer "
            f"{len(trainer.workers)}")
    epoch, rnd = int(meta["epoch"]), int(meta["round"])

    nbytes_read = 0
    for i, worker in enumerate(trainer.workers):
        payload = state[f"worker.{i:04d}.payload"]
        if payload.size == 0:
            continue  # worker was dead (elastic removal) at capture
        nbytes_read += int(payload.size)
        load_worker_state(worker, payload.tobytes())
    for i, meter in enumerate(trainer.meters):
        rows = state[f"meter.{i:04d}.epochs"]
        meter.epochs = [CommRecord(feature_bytes=int(r[0]),
                                   structure_bytes=int(r[1]),
                                   sync_bytes=int(r[2])) for r in rows]
        cur = state[f"meter.{i:04d}.current"]
        meter.current = CommRecord(feature_bytes=int(cur[0]),
                                   structure_bytes=int(cur[1]),
                                   sync_bytes=int(cur[2]))
    trainer.evaluator.rng.bit_generator.state = meta["evaluator_rng"]

    trainer.sync_strategy.restore(meta, state)

    obs = trainer.observer
    if obs is not None and meta["obs"] is not None:
        _restore_metrics(obs, meta["obs"]["metrics"])
        behind = float(meta["obs"]["now_s"]) - obs.tracer.now_s
        if behind > 0:
            obs.tracer.advance(behind)
        obs.counter("checkpoint.restores").inc(1)
        obs.counter("checkpoint.bytes_read").inc(nbytes_read)

    best_state = None
    if meta["best"]["has_state"]:
        best_state = {k[len("best."):]: v for k, v in state.items()
                      if k.startswith("best.")}
    resume = ResumeState(
        epoch=epoch, round=rnd,
        history=[_stats_from_dict(d) for d in meta["history"]],
        best_val=float(meta["best"]["val"]),
        best_state=best_state,
        best_epoch=int(meta["best"]["epoch"]),
        evals_since_best=int(meta["best"]["evals_since_best"]),
        faults=meta["faults"])
    trainer._resume = resume
    return resume


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


def rebuild_trainer(meta, state, split, *,
                    framework: Optional[str] = None,
                    workers: Optional[int] = None):
    """Reconstruct a trainer from :func:`load_checkpoint` output.

    Rebuilds the exact same cluster (config, partitioning, samplers —
    all seeded from the stored config) against ``split``, then restores
    the snapshot into it.  ``framework``/``workers``, when given, must
    match the checkpoint (:class:`CheckpointMismatchError` otherwise) —
    as must ``split``'s fingerprint.  The returned trainer's
    ``train()`` continues the run.
    """
    from ..core.frameworks import FRAMEWORKS, build_trainer

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
    config = TrainConfig(**cfg)
    knobs = meta.get("build_knobs", {})
    trainer = build_trainer(
        FRAMEWORKS[meta["framework"]], split, meta["num_workers"],
        config, alpha=float(knobs.get("alpha", 0.15)),
        rng=np.random.default_rng(config.seed),
        sparsifier_kind=str(knobs.get("sparsifier_kind", "approx_er")))
    restore_trainer(trainer, state)
    return trainer
