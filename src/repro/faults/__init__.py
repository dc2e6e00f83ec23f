"""Fault tolerance for distributed training: plans and recovery.

The subsystem has two layers:

* :mod:`repro.faults.plan` — **what goes wrong**: a
  :class:`FaultPlan` is a seeded, declarative schedule of fault events
  (worker crashes, stragglers, lost/corrupted sync messages, shared
  store outages), plus an optional per-round crash probability
  (:meth:`FaultPlan.from_probability`).
* :mod:`repro.faults.controller` — **how the run survives**: the
  :class:`FaultController` injects each round's planned faults into the
  trainer loop and drives the configured recovery policy (``drop``,
  ``retry``, ``restore``, ``elastic``); what a crash destroys and how
  it is rebuilt belongs to :mod:`repro.distributed.backends`.

The proof lives in ``scripts/golden.py``: every faulted cell of the
golden matrix is held to the robustness invariants (no hang, full
progress, final metrics within tolerance of its fault-free twin, a
lossless ``restore`` ledger), and its ``kill`` cells SIGKILL a forked
coordinator and resume it bit-identically.

Fault and recovery events surface as ``fault`` spans and ``fault.*``
counters on the run's :class:`~repro.obs.RunObserver`, and as a
``faults`` summary on :class:`~repro.distributed.trainer.TrainResult`.
"""

from .controller import RECOVERY_POLICIES, FaultController, RoundDecision
from .errors import (
    ClusterDeadError,
    FaultToleranceError,
    WorkerDiedError,
    WorkerTimeoutError,
)
from .plan import EVENT_KINDS, FAILURE_SEED_SALT, FaultEvent, FaultPlan

__all__ = [
    "EVENT_KINDS",
    "FAILURE_SEED_SALT",
    "RECOVERY_POLICIES",
    "ClusterDeadError",
    "FaultController",
    "FaultEvent",
    "FaultPlan",
    "FaultToleranceError",
    "RoundDecision",
    "WorkerDiedError",
    "WorkerTimeoutError",
]
