"""Declarative arrival plans: seeded schedules of graph change.

An :class:`ArrivalPlan` is to streaming what
:class:`~repro.faults.FaultPlan` is to fault injection and
:class:`~repro.distributed.sync.SyncPlan` is to staleness: a frozen,
serializable description of *what changes and when*, derived entirely
from ``(seed, tick)`` so the same plan replays bit-identically on
every execution backend and across checkpoint/resume boundaries.

Three event kinds:

* ``insert`` — an undirected edge ``{u, v}`` arrives at ``tick``
* ``delete`` — an undirected edge ``{u, v}`` is retracted
* ``drift``  — node ``u``'s feature vector shifts by ``scale``

Plan generation is *state-free*: events are drawn without consulting
the graph, so the plan of tick ``t`` never depends on how earlier
ticks were applied.  Inserting an edge that already exists (or
deleting one that does not) is counted as *skipped* at apply time by
:class:`~repro.stream.mutable.MutableGraph` — the skip count is itself
deterministic, so it participates in the stream digest instead of
breaking it.  Deletions preferentially target edges inserted by
earlier ticks of the same plan (known at generation time, no graph
state needed), which keeps churn realistic without sacrificing
replayability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Event kinds an arrival plan may schedule.
STREAM_EVENT_KINDS = ("insert", "delete", "drift")


@dataclass(frozen=True)
class StreamEvent:
    """One scheduled graph change.

    ``tick`` locates the event on the stream clock (ticks count from
    0).  ``u``/``v`` are the edge endpoints for ``insert``/``delete``;
    ``drift`` uses only ``u`` (the drifting node) and ``scale`` (the
    additive feature shift).
    """

    kind: str
    tick: int
    u: int
    v: int = -1
    scale: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in STREAM_EVENT_KINDS:
            raise ValueError(
                f"unknown stream event kind {self.kind!r}; choose "
                f"from {STREAM_EVENT_KINDS}")
        if self.tick < 0:
            raise ValueError("tick must be >= 0")
        if self.u < 0:
            raise ValueError("u must be a node id (>= 0)")
        if self.kind in ("insert", "delete"):
            if self.v < 0:
                raise ValueError(f"{self.kind} events need both "
                                 "endpoints (v >= 0)")
            if self.u == self.v:
                raise ValueError("self-loops are not valid stream "
                                 "events")
        elif self.scale == 0.0:
            raise ValueError("drift events need a non-zero scale")

    @property
    def edge(self) -> Tuple[int, int]:
        """Canonical ``(lo, hi)`` key of the event's edge."""
        return (min(self.u, self.v), max(self.u, self.v))

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {"kind": self.kind, "tick": self.tick, "u": self.u,
                "v": self.v, "scale": self.scale}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        try:
            return cls(kind=str(data["kind"]), tick=int(data["tick"]),
                       u=int(data["u"]), v=int(data.get("v", -1)),
                       scale=float(data.get("scale", 0.0)))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed StreamEvent dict "
                             f"({type(exc).__name__}: {exc})") from exc


@dataclass(frozen=True)
class ArrivalPlan:
    """A deterministic schedule of graph change for one stream run.

    ``num_nodes`` fixes the id space (streaming changes edges and
    features, never the node set — the paper's datasets have fixed
    vertex universes) and ``ticks`` the stream length; events beyond
    ``ticks`` are rejected so a plan and the run it drives can never
    disagree about duration.
    """

    num_nodes: int
    ticks: int
    events: Tuple[StreamEvent, ...] = ()
    name: str = "plan"

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("num_nodes must be >= 2")
        if self.ticks < 1:
            raise ValueError("ticks must be >= 1")
        events = tuple(self.events)
        for event in events:
            if event.tick >= self.ticks:
                raise ValueError(
                    f"event at tick {event.tick} is beyond the plan's "
                    f"{self.ticks} tick(s)")
            hi = max(event.u, event.v)
            if hi >= self.num_nodes:
                raise ValueError(
                    f"event endpoint {hi} is outside the "
                    f"{self.num_nodes}-node id space")
        object.__setattr__(self, "events", events)

    # -- constructors ----------------------------------------------------

    @classmethod
    def generate(cls, num_nodes: int, ticks: int, seed: int,
                 inserts_per_tick: float = 4.0,
                 deletes_per_tick: float = 1.0,
                 drifts_per_tick: float = 1.0) -> "ArrivalPlan":
        """A seeded random plan; every draw derives from ``(seed, tick)``.

        Each tick gets Poisson-many events of each kind from
        ``np.random.default_rng((seed, tick))`` — the FaultPlan/SyncPlan
        trick — so tick ``t``'s events can be regenerated in isolation
        (checkpoint/resume replays a tail without replaying the head's
        RNG stream).  Deletions draw from the inserts of *earlier
        ticks* when any exist; that is plan-internal information, so
        generation stays independent of graph state.
        """
        if num_nodes < 2:
            raise ValueError("num_nodes must be >= 2")
        events: List[StreamEvent] = []
        prior_inserts: List[Tuple[int, int]] = []
        for tick in range(ticks):
            rng = np.random.default_rng((seed, tick))
            for _ in range(int(rng.poisson(inserts_per_tick))):
                u = int(rng.integers(0, num_nodes))
                v = int(rng.integers(0, num_nodes - 1))
                if v >= u:
                    v += 1  # uniform over v != u, no rejection loop
                events.append(StreamEvent("insert", tick, u, v))
            n_deletes = int(rng.poisson(deletes_per_tick))
            for _ in range(n_deletes):
                if prior_inserts:
                    u, v = prior_inserts[
                        int(rng.integers(0, len(prior_inserts)))]
                else:
                    u = int(rng.integers(0, num_nodes))
                    v = int(rng.integers(0, num_nodes - 1))
                    if v >= u:
                        v += 1
                events.append(StreamEvent("delete", tick, u, v))
            for _ in range(int(rng.poisson(drifts_per_tick))):
                node = int(rng.integers(0, num_nodes))
                scale = float(rng.uniform(0.05, 0.5)
                              * (1 if rng.integers(0, 2) else -1))
                events.append(StreamEvent("drift", tick, node,
                                          scale=scale))
            # This tick's inserts only become delete targets later, so
            # generation order inside a tick cannot matter.
            prior_inserts.extend(
                e.edge for e in events
                if e.tick == tick and e.kind == "insert")
        return cls(num_nodes=num_nodes, ticks=ticks,
                   events=tuple(events), name=f"generated-{seed}")

    # -- queries ---------------------------------------------------------

    def is_empty(self) -> bool:
        """True when the plan changes nothing at all."""
        return not self.events

    def events_at(self, tick: int) -> List[StreamEvent]:
        """Events scheduled exactly at ``tick``, in plan order."""
        return [e for e in self.events if e.tick == tick]

    def counts(self) -> Dict[str, int]:
        """Total events by kind (``insert``/``delete``/``drift``)."""
        out = {kind: 0 for kind in STREAM_EVENT_KINDS}
        for event in self.events:
            out[event.kind] += 1
        return out

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {"name": self.name, "num_nodes": self.num_nodes,
                "ticks": self.ticks,
                "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ArrivalPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        try:
            return cls(num_nodes=int(data["num_nodes"]),
                       ticks=int(data["ticks"]),
                       events=tuple(StreamEvent.from_dict(e)
                                    for e in data.get("events", [])),
                       name=str(data.get("name", "plan")))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed ArrivalPlan dict "
                             f"({type(exc).__name__}: {exc})") from exc

    def describe(self) -> str:
        """One-paragraph summary plus a per-tick event tally."""
        counts = self.counts()
        lines = [f"arrival plan {self.name!r}: {len(self.events)} "
                 f"event(s) over {self.ticks} tick(s) on "
                 f"{self.num_nodes} nodes "
                 f"(+{counts['insert']} edges, -{counts['delete']}, "
                 f"~{counts['drift']} drifts)"]
        for tick in range(self.ticks):
            at = self.events_at(tick)
            if at:
                lines.append(f"  tick {tick}: " + ", ".join(
                    f"{e.kind} {e.u}-{e.v}" if e.kind != "drift"
                    else f"drift {e.u} ({e.scale:+.2f})" for e in at))
        return "\n".join(lines)
