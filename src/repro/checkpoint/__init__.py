"""repro.checkpoint — durable, crash-safe session checkpoints.

Everything the fault layer tolerates today (crash / straggle / message
loss / store outage) assumes the coordinator process survives: worker
snapshots and replay logs live in memory or in child processes.  This
package makes a whole *session* durable:

* :mod:`repro.checkpoint.io` — the atomic persistence primitives
  (``tmp + fsync + rename``).  Every byte this package (and the serve
  artifact) puts on disk goes through them; lint rule R110 flags any
  persistence path that bypasses the module.
* :class:`CheckpointStore` — checksummed snapshot files plus a
  manifest/WAL recording the last durably completed ``(epoch, round)``.
  Torn or corrupted snapshots are detected on read and rolled back to
  the previous good entry.
* :mod:`repro.checkpoint.state` — the worker codec
  (:func:`worker_state_bytes` / :func:`load_worker_state`, also the
  ``restore`` recovery policy's restore points), the checkpoint's
  identity header, and a loop over ``trainer.components()``: workers,
  CommMeter ledgers, loop state, evaluator, fault controller, sync
  strategy, LLCG correction and observer each ``capture()`` /
  ``restore()`` their own state.  Restoring and continuing a killed run
  reproduces the uninterrupted run's
  :meth:`~repro.distributed.trainer.TrainResult.digest` bit for bit.

Entry points: ``TrainConfig.checkpoint_dir`` /
``Session.checkpoint(dir, every=)`` enable periodic writes;
``Session.resume(dir)`` / ``repro.run(..., resume=dir)`` continue a
run; ``Session.restore(dir)`` rebuilds the trainer without training
(e.g. to export a servable).  See ``docs/checkpointing.md``.
"""

from .errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointNotFoundError,
)
from .state import (
    capture_trainer_state,
    load_checkpoint,
    load_worker_state,
    rebuild_trainer,
    restore_trainer,
    split_fingerprint,
    worker_state_bytes,
)
from .store import CheckpointInfo, CheckpointStore

__all__ = [
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointMismatchError",
    "CheckpointNotFoundError",
    "CheckpointStore",
    "capture_trainer_state",
    "load_checkpoint",
    "load_worker_state",
    "rebuild_trainer",
    "restore_trainer",
    "split_fingerprint",
    "worker_state_bytes",
]
