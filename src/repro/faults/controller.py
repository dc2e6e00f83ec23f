"""The fault controller: injects planned faults and drives recovery.

One :class:`FaultController` belongs to a
:class:`~repro.distributed.trainer.DistributedTrainer` for its whole
life, checkpoints included (:meth:`FaultController.capture`).  Each
synchronization round the trainer hands it the per-worker has-batch
flags; the controller consults the
:class:`~repro.faults.plan.FaultPlan` (its events and its per-round
crash probability) and returns a :class:`RoundDecision` with two masks:

* ``train_mask`` — which workers actually train their pending batch,
* ``sync_mask``  — which workers' contributions reach the
  synchronization collective.

The two differ under message faults: a worker whose sync message is
lost *did* train (its RNG stream advanced exactly as in a fault-free
run) but contributes nothing — this is the invariant that keeps
same-seed runs comparable across recovery policies.

Recovery policies
-----------------

``drop``
    Today's behavior: the crashed worker's batch is consumed but never
    trained, its contribution is lost, the round proceeds with
    survivors.
``retry``
    The fault is treated as lost delivery of a durable result: the
    contribution is re-delivered after bounded exponential backoff
    (charged to the simulated clock), so a run with enough retry
    budget finishes bit-identical to its fault-free twin.
``restore``
    A planned crash destroys the worker's volatile state (model,
    optimizer moments, RNG).  The execution backend rebuilds it from
    the worker's last restore point plus a silent replay of the
    command log since (:mod:`repro.distributed.backends`), reproducing
    the pre-crash state bit for bit; the pending batch then trains
    normally and the round is indistinguishable from fault-free.
``elastic``
    The worker is removed for good; training continues with the
    survivors and every subsequent model average is reweighted over
    the live workers only (partial-participation PSGD-PA averaging).

Planned crashes are handed to the backend (``inject_crash``): on the
process backend a real SIGKILL of the worker's child under every
policy (guarded pipe reads detect it, respawn carries out the
recovery); in-process a wipe-and-rebuild under ``restore`` and nothing
beyond the masks below otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .plan import FAILURE_SEED_SALT, FaultEvent, FaultPlan

#: Recovery policies accepted by ``TrainConfig.recovery``.
RECOVERY_POLICIES = ("drop", "retry", "restore", "elastic")


@dataclass
class RoundDecision:
    """What the trainer should do with this round's pending batches."""

    train_mask: List[bool]
    sync_mask: List[bool]


class FaultController:
    """Per-run fault injection + recovery state machine."""

    def __init__(self, trainer) -> None:
        config = trainer.config
        self.trainer = trainer
        self.config = config
        self.plan = plan = config.fault_plan or FaultPlan.empty()
        self.policy = config.recovery
        num_workers = len(trainer.workers)
        if plan.max_worker() >= num_workers:
            raise ValueError(
                f"fault plan targets worker {plan.max_worker()} but the "
                f"cluster has {num_workers} worker(s)")
        self.live: List[bool] = [True] * num_workers
        self.obs = trainer.observer
        self.counts: Dict[str, int] = {}
        self.dropped_contributions = 0
        #: RNG for the plan's per-round crash probability; same seed
        #: salt (and the same per-round draw order) as the pre-plan
        #: trainer, so probabilistic runs stay bit-identical.
        self._failure_rng = np.random.default_rng(
            config.seed + FAILURE_SEED_SALT)
        self._retry_attempts: List[int] = [0] * num_workers
        #: Workers whose sync message was lost since the last model
        #: barrier — excluded from the next model average.
        self._model_sync_excluded: set = set()
        self._outage_rounds_left = 0

    # -- bookkeeping -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether this run injects any faults at all."""
        return not self.plan.is_empty()

    def num_live(self) -> int:
        """Workers still participating."""
        return sum(self.live)

    @property
    def all_live(self) -> bool:
        """True while no worker has been permanently removed."""
        return all(self.live)

    def model_sync_mask(self) -> List[bool]:
        """Who participates in the next model average: live workers
        whose sync messages since the last barrier all arrived."""
        return [alive and i not in self._model_sync_excluded
                for i, alive in enumerate(self.live)]

    def count(self, name: str, value: float = 1) -> None:
        """Increment an internal fault counter and its obs mirror."""
        self.counts[name] = self.counts.get(name, 0) + value
        if self.obs is not None:
            self.obs.counter(f"fault.{name}").inc(value)

    def summary(self) -> Dict[str, float]:
        """All fault/recovery counters accumulated so far."""
        return dict(self.counts)

    def capture(self) -> tuple:
        """The ``faults`` meta entry of a session checkpoint: liveness,
        counters, retry budgets, exclusions, the crash-probability RNG."""
        return {"faults": {
            "live": list(self.live),
            "counts": dict(self.counts),
            "dropped": self.dropped_contributions,
            "retry_attempts": list(self._retry_attempts),
            "model_sync_excluded": sorted(self._model_sync_excluded),
            "outage_rounds_left": self._outage_rounds_left,
            "failure_rng": self._failure_rng.bit_generator.state,
        }}, {}

    def restore(self, meta, arrays) -> None:
        """Load :meth:`capture` output back."""
        saved = meta["faults"]
        self.live = [bool(x) for x in saved["live"]]
        self.counts = dict(saved["counts"])
        self.dropped_contributions = int(saved["dropped"])
        self._retry_attempts = [int(x) for x in saved["retry_attempts"]]
        self._model_sync_excluded = set(saved["model_sync_excluded"])
        self._outage_rounds_left = int(saved["outage_rounds_left"])
        self._failure_rng.bit_generator.state = saved["failure_rng"]

    def _span(self, kind: str, **attrs):
        """Emit a zero-duration ``fault`` span when observing."""
        if self.obs is not None:
            with self.obs.span("fault", kind=kind, **attrs):
                pass

    def mark_dead(self, worker: int, reason: str = "") -> None:
        """Permanently remove a worker (elastic removal, real death)."""
        if self.live[worker]:
            self.live[worker] = False
            self.count("elastic_removed")
            self._span("elastic_remove", worker=worker, reason=reason)

    # -- round hooks -----------------------------------------------------

    def plan_round(self, epoch: int, rnd: int,
                   has_batch: List[bool]) -> RoundDecision:
        """Decide this round's faults.

        Draw order of the plan's crash probability replays the
        pre-plan trainer's exactly: one draw per live worker holding a
        batch, in worker order, before declarative events apply.
        """
        train_mask = [bool(h) and self.live[i]
                      for i, h in enumerate(has_batch)]
        decision = RoundDecision(train_mask=train_mask,
                                 sync_mask=list(train_mask))
        if self._outage_rounds_left > 0:
            self._outage_rounds_left -= 1
            self._store_stall()
        prob = self.plan.worker_failure_prob
        if prob:
            for i, has in enumerate(has_batch):
                if not has or not self.live[i]:
                    continue
                if self._failure_rng.random() < prob:
                    self._apply_crash(i, decision, source="prob")
        for event in self.plan.events_at(epoch, rnd):
            self._apply_event(event, decision)
        return decision

    def barrier(self) -> None:
        """A synchronization barrier completed: every live replica is
        at the consensus again — forget pre-barrier message faults."""
        self._model_sync_excluded.clear()

    # -- event application ------------------------------------------------

    def _apply_event(self, event: FaultEvent,
                     decision: RoundDecision) -> None:
        """Dispatch one declarative event against this round."""
        if event.kind == "store_outage":
            self.count("store_outages")
            self._span("store_outage", rounds=event.rounds)
            self._outage_rounds_left = max(self._outage_rounds_left,
                                           event.rounds - 1)
            self._store_stall()
            return
        worker = event.worker
        if not self.live[worker]:
            return
        if event.kind == "crash":
            self._apply_crash(worker, decision, source="plan")
        elif event.kind == "straggle":
            self._apply_straggle(worker, event, decision)
        elif event.kind in ("msg_loss", "msg_corrupt"):
            self._apply_message_fault(worker, event.kind, decision)

    def _apply_crash(self, worker: int, decision: RoundDecision,
                     source: str) -> None:
        """A worker loses its round (and, when planned under restore,
        its state).

        Only *planned* crashes reach the backend; probabilistic and
        straggle-timeout crashes never kill.  The mask stays on where
        the backend makes the worker whole again: retry after a real
        kill (the batch is requeued), and restore always (a planned
        victim is rebuilt exactly; otherwise the result is durable
        worker-side).
        """
        self.count("crashes")
        self._span("crash", worker=worker, source=source,
                   policy=self.policy)
        backend = self.trainer.backend
        planned = source == "plan"
        real_kill = planned and backend.child_owned_state
        if planned:
            backend.inject_crash(worker)
        if self.policy == "drop":
            self._drop(worker, decision)
        elif self.policy == "retry" and not real_kill:
            # (After a real kill the backend requeues the pending batch
            # onto the respawned child; the backoff is charged there.)
            if self._charge_retries(worker):
                self.count("redelivered")
            else:
                self._drop(worker, decision)
        elif self.policy == "elastic":
            if self.num_live() <= 1:
                self._spare_last_worker(worker, decision)
                return
            self.mark_dead(worker, reason=source)
            backend.deactivate(worker)
            self._drop(worker, decision)

    def _apply_straggle(self, worker: int, event: FaultEvent,
                        decision: RoundDecision) -> None:
        """Charge the delay; past the timeout budget it is a crash."""
        self.count("straggles")
        self.count("straggle_s", event.delay_s)
        self._span("straggle", worker=worker, delay_s=event.delay_s)
        if self.obs is not None:
            self.obs.advance(event.delay_s)
        if event.delay_s > self.config.fault_timeout_s:
            self.count("straggle_timeouts")
            self._apply_crash(worker, decision, source="straggle")

    def _apply_message_fault(self, worker: int, kind: str,
                             decision: RoundDecision) -> None:
        """The worker trains, but its contribution is lost/corrupted;
        retry and restore re-deliver (the result is durable
        worker-side), drop and elastic lose it for the round."""
        self.count(kind)
        self._span(kind, worker=worker, policy=self.policy)
        if self.policy in ("retry", "restore"):
            if self._charge_retries(worker):
                self.count("redelivered")
                return
        if decision.train_mask[worker]:
            decision.sync_mask[worker] = False
            self._model_sync_excluded.add(worker)
            self.record_dropped()

    # -- recovery actions --------------------------------------------------

    def _drop(self, worker: int, decision: RoundDecision) -> None:
        """Lose the worker's round: batch consumed, never trained."""
        decision.train_mask[worker] = False
        decision.sync_mask[worker] = False
        self.record_dropped()

    def record_dropped(self) -> None:
        """A contribution was lost (also the backend's hook for a real
        worker death)."""
        self.dropped_contributions += 1
        self.count("dropped_contributions")
        if self.obs is not None:
            # Legacy counter name, kept for report compatibility.
            self.obs.counter("train.dropped_contributions").inc(1)

    def _charge_retries(self, worker: int) -> bool:
        """Charge one bounded-exponential-backoff re-delivery.

        The n-th retry for a worker waits ``retry_backoff_s * 2**n``
        simulated seconds, capped at ``fault_timeout_s``.  Returns
        False once the worker has exhausted its ``max_retries`` budget,
        in which case the caller degrades to ``drop``.
        """
        config = self.config
        attempt = self._retry_attempts[worker]
        if attempt >= config.max_retries:
            self.count("retry_budget_exhausted")
            return False
        self._retry_attempts[worker] = attempt + 1
        backoff = min(config.retry_backoff_s * (2.0 ** attempt),
                      config.fault_timeout_s)
        self.count("retries")
        self.count("retry_backoff_s", backoff)
        self._span("retry", worker=worker, attempt=attempt,
                   backoff_s=backoff)
        if self.obs is not None:
            self.obs.advance(backoff)
        return True

    def _spare_last_worker(self, worker: int,
                           decision: RoundDecision) -> None:
        """Never remove the final live worker — degrade to drop so the
        run can finish (the no-hang fault invariant)."""
        self.count("spared_last_worker")
        self._span("spared_last_worker", worker=worker)
        self._drop(worker, decision)

    def _store_stall(self) -> None:
        """One round spent with the shared store unreachable: workers
        buffer their remote requests and the run pays latency (no data
        is lost — the store replays its queue when it returns)."""
        self.count("store_outage_rounds")
        stall = self.config.retry_backoff_s
        self.count("store_stall_s", stall)
        if self.obs is not None:
            self.obs.advance(stall)
