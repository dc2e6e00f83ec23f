"""Dynamic micro-batching on the simulated hardware clock.

The scheduler is the *deterministic half* of the serving cluster: a
discrete-event simulation that admits requests, batches them per
shard, and assigns every request its simulated timestamps.  Per shard
it keeps a bounded admission queue (overflow is load-shed with an
explicit outcome, never silently dropped) and flushes a micro-batch
whenever the shard is idle and either

* ``max_batch`` requests are waiting (size trigger), or
* the oldest waiting request has aged ``max_delay_s`` (delay trigger).

Service time for a flush comes from a cost callback the cluster
provides (bytes moved through the cache hierarchy plus decoder
compute, priced by the
:class:`~repro.distributed.timeline.HardwareModel`), so all queueing,
batching, shedding and latency numbers live entirely on the simulated
clock.  Nothing in this phase touches floats from model inference and
nothing depends on wall-clock time or thread interleaving — which is
why serve results are bit-identical across execution backends: the
backends only execute the *numeric* phase against the flush plan this
scheduler already fixed.

Shard outages come from a :class:`~repro.faults.FaultPlan` compiled by
:class:`ServeFaultSchedule`; routing around them reuses the
:class:`~repro.distributed.routing.ShardRouter` fallback (and its
``ClusterDeadError`` when no shard remains).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..distributed.routing import ShardRouter
from ..faults.plan import FaultPlan
from .requests import RequestOutcome, ScoreRequest, TopKRequest

#: Events processed strictly in (time, insertion) order.
_ARRIVAL, _DEADLINE, _COMPLETE = 0, 1, 2


@dataclass
class Flush:
    """One dispatched micro-batch: the unit of phase-2 execution."""

    shard: int
    seqs: List[int]
    dispatch_s: float
    completion_s: float
    service_s: float
    meta: Dict[str, object] = field(default_factory=dict)


class ServeFaultSchedule:
    """A :class:`~repro.faults.FaultPlan` reinterpreted for serving.

    Serving is epoch-free, so an event's ``round`` indexes the global
    *admitted-request sequence* (``epoch`` is ignored):

    * ``crash`` — shard ``worker`` is down from request ``round`` on
      (permanent outage; traffic is rerouted via the router fallback).
    * ``store_outage`` — shard ``worker``'s replica store is down for
      the window ``[round, round + rounds)`` requests, then recovers.
    * ``straggle`` — ``delay_s`` simulated seconds are added to the
      first flush on shard ``worker`` dispatched at or after request
      ``round``.
    * ``msg_loss`` / ``msg_corrupt`` — collective-sync faults with no
      serving analogue; counted as ignored.
    """

    def __init__(self, plan: Optional[FaultPlan], num_shards: int) -> None:
        self.num_shards = int(num_shards)
        #: (start_seq, end_seq) half-open down windows, per shard.
        self.windows: List[List[Tuple[int, float]]] = [
            [] for _ in range(num_shards)]
        #: (anchor_seq, delay_s) straggles not yet consumed, per shard.
        self.straggles: List[List[Tuple[int, float]]] = [
            [] for _ in range(num_shards)]
        self.ignored_events = 0
        if plan is None:
            return
        for event in plan.events:
            shard = event.worker
            if shard >= num_shards:
                self.ignored_events += 1
                continue
            if event.kind == "crash":
                self.windows[shard].append((event.round, float("inf")))
            elif event.kind == "store_outage":
                self.windows[shard].append(
                    (event.round, event.round + event.rounds))
            elif event.kind == "straggle":
                self.straggles[shard].append((event.round, event.delay_s))
            else:
                self.ignored_events += 1
        for per_shard in self.straggles:
            per_shard.sort()

    def down_at(self, shard: int, seq: int) -> bool:
        """Whether ``shard`` is down when request ``seq`` is admitted."""
        return any(start <= seq < end for start, end in self.windows[shard])

    def sync_router(self, router: ShardRouter, seq: int) -> None:
        """Bring the router's down set in line with the schedule at
        admission sequence ``seq`` (recoveries first, then outages;
        downing the last live shard raises ``ClusterDeadError``)."""
        if not any(self.windows):
            return  # no outage planned: nothing is ever down
        for shard in range(self.num_shards):
            if router.is_down(shard) and not self.down_at(shard, seq):
                router.mark_up(shard)
        for shard in range(self.num_shards):
            if not router.is_down(shard) and self.down_at(shard, seq):
                router.mark_down(shard)

    def consume_straggle(self, shard: int, max_seq: int) -> float:
        """Total straggler delay triggered by a flush on ``shard``
        whose newest request is ``max_seq`` (each event fires once)."""
        pending = self.straggles[shard]
        if not pending:
            return 0.0
        due = [d for anchor, d in pending if anchor <= max_seq]
        if due:
            self.straggles[shard] = [
                (anchor, d) for anchor, d in pending if anchor > max_seq]
        return float(sum(due))


class MicroBatchScheduler:
    """Per-shard bounded queues + size/delay flush triggers.

    Parameters
    ----------
    router:
        The shared :class:`ShardRouter` (owner routing + outage
        fallback).
    schedule:
        Compiled fault schedule driving the router's down set.
    flush_cost:
        ``(shard, outcomes) -> (service_seconds, meta)`` — the
        cluster's deterministic cost model for one micro-batch (cache
        bookkeeping, byte charges, decoder compute).
    """

    def __init__(
        self,
        router: ShardRouter,
        schedule: ServeFaultSchedule,
        *,
        max_batch: int,
        max_delay_s: float,
        max_queue: int,
        flush_cost: Callable[[int, List[RequestOutcome]],
                             Tuple[float, Dict[str, object]]],
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.router = router
        self.schedule = schedule
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self.max_queue = int(max_queue)
        self.flush_cost = flush_cost
        n = router.num_parts
        self.outcomes: List[RequestOutcome] = []
        self.flushes: List[Flush] = []
        self._queues: List[List[int]] = [[] for _ in range(n)]
        self._busy: List[bool] = [False] * n
        self._heap: List[tuple] = []
        self._pushes = 0
        #: Due time of each shard's pending delay deadline (None: none).
        self._armed: List[Optional[float]] = [None] * n
        self.counters: Dict[str, int] = {
            "requests": 0, "completed": 0, "shed": 0, "rerouted": 0,
            "flushes": 0, "max_queue_depth": 0,
            "ignored_fault_events": schedule.ignored_events,
        }

    # -- event plumbing --------------------------------------------------

    def _push(self, time_s: float, kind: int, payload) -> None:
        heapq.heappush(self._heap, (time_s, self._pushes, kind, payload))
        self._pushes += 1

    def run(self, workload) -> None:
        """Run the simulation to quiescence (heap drained).

        ``workload`` provides ``initial()`` (the seed arrivals) and
        ``on_complete(request, time_s, status)`` (reactive arrivals for
        closed loops; open loops return none).  Results accumulate in
        :attr:`outcomes`, :attr:`flushes` and :attr:`counters`.
        """
        for time_s, request in workload.initial():
            self._push(max(0.0, float(time_s)), _ARRIVAL, request)
        heap, armed = self._heap, self._armed
        while heap:
            time_s, _, kind, payload = heapq.heappop(heap)
            if kind == _ARRIVAL:
                self._admit(time_s, payload)
            elif kind == _DEADLINE:
                # A deadline re-armed since was set for a queue head that
                # has left the queue: its re-check could not dispatch.
                if armed[payload] == time_s:
                    armed[payload] = None
                    self._maybe_dispatch(payload, time_s)
            else:
                self._complete(time_s, payload, workload)

    # -- admission -------------------------------------------------------

    def _admit(self, now: float, request) -> None:
        seq = len(self.outcomes)
        self.schedule.sync_router(self.router, seq)
        if isinstance(request, ScoreRequest):
            src, dst = request.u, request.v
        elif isinstance(request, TopKRequest):
            src = dst = request.node
        else:
            raise TypeError(f"unknown request type {type(request).__name__}")
        shard, rerouted = self.router.route(src, dst)
        outcome = RequestOutcome(index=seq, request=request, shard=shard,
                                 rerouted=rerouted, arrival_s=now)
        self.outcomes.append(outcome)
        self.counters["requests"] += 1
        self.counters["rerouted"] += int(rerouted)
        queue = self._queues[outcome.shard]
        if len(queue) >= self.max_queue:
            outcome.status = "shed"
            outcome.completion_s = now
            self.counters["shed"] += 1
            self._notify_later(outcome)
            return
        queue.append(seq)
        depth = len(queue)
        if depth > self.counters["max_queue_depth"]:
            self.counters["max_queue_depth"] = depth
        self._maybe_dispatch(outcome.shard, now)

    def _notify_later(self, outcome: RequestOutcome) -> None:
        """Queue a shed notification so closed-loop clients observe the
        rejection and keep issuing traffic (processed as a zero-width
        completion event)."""
        self._push(outcome.completion_s, _COMPLETE,
                   Flush(shard=outcome.shard, seqs=[outcome.index],
                         dispatch_s=outcome.completion_s,
                         completion_s=outcome.completion_s,
                         service_s=0.0, meta={"shed": True}))

    # -- dispatch --------------------------------------------------------

    def _maybe_dispatch(self, shard: int, now: float) -> None:
        if self._busy[shard]:
            return
        queue = self._queues[shard]
        if not queue:
            return
        # The deadline comparison must use the *same float expression*
        # the deadline event was scheduled with — computing the wait as
        # (now - arrival) can round below max_delay_s and re-arm the
        # same deadline forever.
        due = self.outcomes[queue[0]].arrival_s + self.max_delay_s
        if len(queue) >= self.max_batch or now >= due:
            self._dispatch(shard, now)
        elif self._armed[shard] != due:
            # Arm the delay trigger for the oldest waiting request.  A
            # shard keeps one pending deadline: re-arming the same due
            # time is a no-op, since every event that changes the shard
            # re-runs this check at its own time anyway.
            self._armed[shard] = due
            self._push(due, _DEADLINE, shard)

    def _dispatch(self, shard: int, now: float) -> None:
        queue = self._queues[shard]
        take = queue[:self.max_batch]
        del queue[:self.max_batch]
        batch = [self.outcomes[i] for i in take]
        service_s, meta = self.flush_cost(shard, batch)
        service_s += self.schedule.consume_straggle(shard, max(take))
        completion = now + service_s
        for outcome in batch:
            outcome.status = "ok"
            outcome.dispatch_s = now
            outcome.completion_s = completion
        flush = Flush(shard=shard, seqs=take, dispatch_s=now,
                      completion_s=completion, service_s=service_s,
                      meta=meta)
        self.flushes.append(flush)
        self.counters["flushes"] += 1
        self.counters["completed"] += len(take)
        self._busy[shard] = True
        self._push(completion, _COMPLETE, flush)

    def _complete(self, now: float, flush: Flush, workload) -> None:
        if not flush.meta.get("shed"):
            self._busy[flush.shard] = False
        for index in flush.seqs:
            outcome = self.outcomes[index]
            for time_s, request in workload.on_complete(
                    outcome.request, now, outcome.status):
                self._push(max(float(time_s), now), _ARRIVAL, request)
        self._maybe_dispatch(flush.shard, now)
