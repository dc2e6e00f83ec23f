"""Declarative fault plans: seeded schedules of injected failures.

A :class:`FaultPlan` replaces the single ``worker_failure_prob`` float
with a first-class description of *what goes wrong and when* during a
distributed training run:

* ``crash``        — worker loses its volatile state at a round
* ``straggle``     — worker is delayed by ``delay_s`` simulated seconds
* ``msg_loss``     — the worker's sync contribution is lost in flight
* ``msg_corrupt``  — the contribution arrives corrupted (detected and
  discarded by the checksum, counted separately from plain loss)
* ``store_outage`` — the shared store is unreachable for a window of
  ``rounds`` rounds

Events are deterministic: the same plan against the same seed produces
the same injected faults on every backend, which is what lets the
chaos harness compare backends and recovery policies run-for-run.  The
legacy ``worker_failure_prob`` knob compiles to a plan through
:meth:`FaultPlan.from_probability`; its per-round draws replay the old
trainer's RNG stream exactly, so legacy configs stay bit-identical.

How a fault is *survived* is a separate axis — the recovery policy —
handled by :mod:`repro.faults.controller`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

#: Event kinds a plan may schedule.
EVENT_KINDS = ("crash", "straggle", "msg_loss", "msg_corrupt",
               "store_outage")

#: Salt added to ``TrainConfig.seed`` for the probabilistic shim's RNG;
#: equals the constant the pre-FaultPlan trainer used, which is what
#: keeps ``worker_failure_prob`` runs bit-identical across the refactor.
FAILURE_SEED_SALT = 40177


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``epoch``/``round`` locate the injection point (round indices count
    synchronization rounds within the epoch, starting at 0).  ``worker``
    is the target replica; it is ignored for ``store_outage``, which
    affects every worker's shared store.  ``delay_s`` is the straggler
    delay in simulated seconds; ``rounds`` the outage window length.
    """

    kind: str
    epoch: int
    round: int
    worker: int = 0
    delay_s: float = 0.0
    rounds: int = 1

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{EVENT_KINDS}")
        if self.epoch < 0 or self.round < 0:
            raise ValueError("epoch and round must be >= 0")
        if self.worker < 0:
            raise ValueError("worker must be >= 0")
        if self.kind == "straggle" and self.delay_s <= 0:
            raise ValueError("straggle events need delay_s > 0")
        if self.kind == "store_outage" and self.rounds < 1:
            raise ValueError("store_outage events need rounds >= 1")

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {"kind": self.kind, "epoch": self.epoch,
                "round": self.round, "worker": self.worker,
                "delay_s": self.delay_s, "rounds": self.rounds}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        try:
            return cls(kind=str(data["kind"]), epoch=int(data["epoch"]),
                       round=int(data["round"]),
                       worker=int(data.get("worker", 0)),
                       delay_s=float(data.get("delay_s", 0.0)),
                       rounds=int(data.get("rounds", 1)))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed FaultEvent dict "
                             f"({type(exc).__name__}: {exc})") from exc


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault events for one training run.

    ``events`` is the declarative part; ``worker_failure_prob`` is the
    stochastic legacy component (per-round, per-worker crash draws from
    a generator seeded ``config.seed + FAILURE_SEED_SALT`` in exactly
    the order the pre-plan trainer drew them).  A plan with no events
    and zero probability injects nothing and costs nothing — the
    trainer's empty-plan fast path keeps such runs bit-identical to a
    run with no plan at all.
    """

    events: Tuple[FaultEvent, ...] = ()
    worker_failure_prob: float = 0.0
    name: str = "plan"

    def __post_init__(self) -> None:
        if not 0.0 <= self.worker_failure_prob < 1.0:
            raise ValueError("worker_failure_prob must be in [0, 1)")
        object.__setattr__(self, "events", tuple(self.events))

    # -- constructors ----------------------------------------------------

    @classmethod
    def empty(cls) -> "FaultPlan":
        """A plan that injects nothing (the default)."""
        return cls(name="empty")

    @classmethod
    def from_probability(cls, prob: float) -> "FaultPlan":
        """Compile the legacy ``worker_failure_prob`` knob to a plan."""
        return cls(worker_failure_prob=float(prob), name="legacy_prob")

    @classmethod
    def random(cls, num_workers: int, epochs: int, seed: int,
               events_per_epoch: float = 1.0,
               kinds: Iterable[str] = ("crash", "straggle", "msg_loss"),
               rounds_hint: int = 4) -> "FaultPlan":
        """A seeded random schedule for chaos sweeps.

        Draws ``events_per_epoch`` events per epoch on average, each
        with a random kind from ``kinds``, a random worker, and a round
        uniform in ``[0, rounds_hint)``.  Deterministic in ``seed``.
        """
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        kinds = tuple(kinds)
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        for epoch in range(epochs):
            n = rng.poisson(events_per_epoch)
            for _ in range(int(n)):
                kind = kinds[int(rng.integers(0, len(kinds)))]
                events.append(FaultEvent(
                    kind=kind,
                    epoch=epoch,
                    round=int(rng.integers(0, max(rounds_hint, 1))),
                    worker=int(rng.integers(0, num_workers)),
                    delay_s=(float(rng.uniform(0.01, 0.5))
                             if kind == "straggle" else 0.0),
                    rounds=(int(rng.integers(1, 3))
                            if kind == "store_outage" else 1)))
        return cls(events=tuple(events), name=f"random-{seed}")

    # -- queries ---------------------------------------------------------

    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not self.events and self.worker_failure_prob == 0.0

    def events_at(self, epoch: int, rnd: int) -> List[FaultEvent]:
        """Events scheduled exactly at ``(epoch, round)``, plan order."""
        return [e for e in self.events
                if e.epoch == epoch and e.round == rnd]

    def at_epoch(self, epoch: int) -> "FaultPlan":
        """The sub-plan of events scheduled in ``epoch``.

        Used by consumers with their own outer clock — the streaming
        driver treats ``epoch`` as its *tick* and hands each tick's
        sub-plan to the epoch-free serving scheduler (which reads only
        ``round``).  The probabilistic legacy knob does not slice and
        is dropped deliberately.
        """
        return FaultPlan(
            events=tuple(e for e in self.events if e.epoch == epoch),
            name=f"{self.name}@{epoch}")

    def max_worker(self) -> int:
        """Highest worker index any event targets (-1 when none)."""
        targeted = [e.worker for e in self.events
                    if e.kind != "store_outage"]
        return max(targeted) if targeted else -1

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {"name": self.name,
                "worker_failure_prob": self.worker_failure_prob,
                "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        try:
            return cls(
                events=tuple(FaultEvent.from_dict(e)
                             for e in data.get("events", [])),
                worker_failure_prob=float(
                    data.get("worker_failure_prob", 0.0)),
                name=str(data.get("name", "plan")))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed FaultPlan dict "
                             f"({type(exc).__name__}: {exc})") from exc

    def describe(self) -> str:
        """One line per scheduled event, for logs and chaos reports."""
        lines = [f"plan {self.name!r}: {len(self.events)} event(s), "
                 f"p(crash)={self.worker_failure_prob}"]
        for e in self.events:
            where = (f"epoch {e.epoch} round {e.round}")
            if e.kind == "store_outage":
                lines.append(f"  {e.kind} at {where} for {e.rounds} "
                             "round(s)")
            elif e.kind == "straggle":
                lines.append(f"  {e.kind} worker {e.worker} at {where} "
                             f"(+{e.delay_s:.3f}s)")
            else:
                lines.append(f"  {e.kind} worker {e.worker} at {where}")
        return "\n".join(lines)
