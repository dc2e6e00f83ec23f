"""Metrics primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a deterministic, in-process metric store
the training stack reports into: the trainer (batches, rounds,
message-flow edges), the stores (requests served), the worker views
(remote fetches, cache hits), the negative samplers (pairs drawn), the
sparsifier (edges kept/dropped) and the :class:`CommMeter` (bytes, in
exact mirror of the byte ledger).  Values are pure counts and sums of
already-deterministic quantities — no wall-clock, no sampling — so
two same-seed runs serialize to identical JSON.

Naming convention (see ``docs/observability.md``): dot-separated
``subsystem.quantity[_unit]``, e.g. ``comm.feature_bytes``,
``store.structure_requests``, ``time.compute_s``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

#: Default histogram buckets for loss-like values (upper bounds).
LOSS_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0)

#: Default histogram buckets for per-epoch simulated seconds.
SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0)

#: Default histogram buckets for parameter-server push staleness
#: (server versions a gradient lagged behind when it was applied).
STALENESS_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Default histogram buckets for hot-swap latency: simulated seconds
#: between a swap point and the first post-swap completion (streaming).
SWAP_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 0.05, 0.1, 0.5, 1.0)


class Counter:
    """Monotonically non-decreasing sum (ints or floats).

    Increments are serialized with a lock: under the thread execution
    backend, worker threads mirror CommMeter charges and store/fetch
    counts into shared counters concurrently, and ``value += amount``
    is a read-modify-write.  Sums commute, so locked concurrent
    increments stay bit-identical to the serial order.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        with self._lock:
            self.value += amount

    def to_dict(self) -> Dict[str, object]:
        """Serializable snapshot."""
        return {"value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def to_dict(self) -> Dict[str, object]:
        """Serializable snapshot."""
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram (cumulative-style bucket upper bounds).

    ``buckets`` are ascending upper bounds; an implicit ``+inf``
    bucket catches the overflow.  Tracks count and sum so means can be
    recovered.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name}: buckets must be non-empty and "
                "strictly ascending")
        self.name = name
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += float(value)
        self.count += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Serializable snapshot (bounds, per-bucket counts, sum)."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Get-or-create registry keyed by metric name.

    A name is permanently bound to its first kind; asking for the same
    name as a different kind raises so subsystems cannot silently
    shadow each other's metrics.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, kind: type, *args):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}")
            return existing
        metric = kind(name, *args)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  buckets: Sequence[float] = SECONDS_BUCKETS) -> Histogram:
        """Get or create the named histogram (buckets fixed on first
        creation)."""
        return self._get_or_create(name, Histogram, buckets)

    def load_dict(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Set every metric named in a :meth:`to_dict` snapshot to its
        recorded value, creating the ones that do not exist yet."""
        for name, entry in snapshot.items():
            if entry["kind"] == "histogram":
                hist = self.histogram(name, entry["buckets"])
                hist.counts = list(entry["counts"])
                hist.total = entry["sum"]
                hist.count = entry["count"]
            else:
                getattr(self, entry["kind"])(name).value = entry["value"]

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """All metrics as ``{name: {"kind": ..., ...snapshot}}``,
        sorted by name for stable serialization."""
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry = {"kind": type(metric).__name__.lower()}
            entry.update(metric.to_dict())
            out[name] = entry
        return out
