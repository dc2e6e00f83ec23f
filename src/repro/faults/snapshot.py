"""Worker checkpoints for crash recovery.

A :class:`WorkerSnapshot` captures everything a worker needs to be
rehydrated bit-identically after a crash:

* the model ``state_dict``,
* the optimizer state (Adam moments + step count — see
  :meth:`repro.nn.optim.Adam.state_dict`),
* the worker's RNG state.  Every stochastic component of a worker
  (batch loader shuffle, neighbor sampler, negative sampler) shares
  **one** ``numpy.random.Generator``, so a single bit-generator state
  pins the entire remaining random stream,
* its position in the run (epoch, rounds into the epoch).

Snapshots round-trip through :mod:`repro.nn.serialize`'s compressed
npz codec in memory; :mod:`repro.checkpoint` embeds the same payloads
in its durable, atomically written session snapshots.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..nn.serialize import load_state_dict, save_state_dict

_MODEL_PREFIX = "model/"
_OPTIM_PREFIX = "optim/"
_RNG_KEY = "rng_state_json"
_POS_KEY = "position"


@dataclass
class WorkerSnapshot:
    """Serialized worker state at a checkpoint boundary."""

    #: Compressed npz payload (model + optimizer + RNG + position).
    payload: bytes
    epoch: int
    round: int

    @property
    def nbytes(self) -> int:
        """Size of the serialized checkpoint."""
        return len(self.payload)


def _rng_state(rng: np.random.Generator) -> str:
    """JSON-encode a generator's bit-generator state."""
    return json.dumps(rng.bit_generator.state)


def _set_rng_state(rng: np.random.Generator, encoded: str) -> None:
    """Restore a generator from :func:`_rng_state` output."""
    rng.bit_generator.state = json.loads(encoded)


def snapshot_worker(worker, epoch: int, rnd: int) -> WorkerSnapshot:
    """Checkpoint a trainer worker (model, optimizer, RNG, position).

    ``worker`` is a :class:`repro.distributed.trainer._Worker` (duck
    typed: needs ``model``, ``optimizer`` and ``rng`` attributes).  The
    state is serialized immediately, so later mutation of the live
    worker cannot leak into the snapshot.
    """
    state: Dict[str, np.ndarray] = {}
    for name, value in worker.model.state_dict().items():
        state[_MODEL_PREFIX + name] = value
    for name, value in worker.optimizer.state_dict().items():
        state[_OPTIM_PREFIX + name] = value
    state[_RNG_KEY] = np.array(_rng_state(worker.rng))
    state[_POS_KEY] = np.array([epoch, rnd], dtype=np.int64)
    buffer = io.BytesIO()
    save_state_dict(state, buffer)
    return WorkerSnapshot(payload=buffer.getvalue(), epoch=epoch, round=rnd)


def restore_worker(worker, snapshot: WorkerSnapshot) -> None:
    """Load a :func:`snapshot_worker` checkpoint back into ``worker``.

    After the call the worker's model weights, optimizer moments and
    random stream are exactly as they were at the checkpoint; replaying
    the same batches then reproduces the pre-crash trajectory bit for
    bit (deterministic compute).
    """
    state = load_state_dict(io.BytesIO(snapshot.payload))
    model_state = {}
    optim_state = {}
    for key, value in state.items():
        if key.startswith(_MODEL_PREFIX):
            model_state[key[len(_MODEL_PREFIX):]] = value
        elif key.startswith(_OPTIM_PREFIX):
            optim_state[key[len(_OPTIM_PREFIX):]] = value
    worker.model.load_state_dict(model_state)
    worker.optimizer.load_state_dict(optim_state)
    _set_rng_state(worker.rng, str(state[_RNG_KEY]))
