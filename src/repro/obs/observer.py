"""The run observer: one tracer + one metrics registry per run.

A :class:`RunObserver` is the object threaded through the training
stack when ``TrainConfig.observe`` is on.  It bundles the simulated
clock tracer, the metrics registry, and the hardware cost model that
converts *work* (bytes moved, edges aggregated) into *simulated
seconds* — the same :class:`~repro.distributed.timeline.HardwareModel`
the offline timeline replay uses, so span durations and the
end-of-run timeline breakdown agree by construction.

Instrumented call sites treat the observer as optional (``obs=None``
disables everything); with no observer attached the instrumented code
paths perform no extra work beyond a ``None`` check, which keeps
unobserved runs bit-identical to pre-instrumentation behavior.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import Span, Tracer


class RunObserver:
    """Tracing + metrics facade handed to every instrumented subsystem.

    Parameters
    ----------
    hardware:
        A :class:`~repro.distributed.timeline.HardwareModel` (or any
        object with ``bytes_per_second``, ``edges_per_second``,
        ``request_latency_s`` and ``sync_latency_s``) used to convert
        byte/edge counts into simulated span durations.  Defaults to
        the timeline module's defaults.
    """

    def __init__(self, hardware=None) -> None:
        if hardware is None:
            # Deferred import: repro.distributed imports the trainer,
            # which imports this module — a top-level import here would
            # be circular.
            from ..distributed.timeline import HardwareModel
            hardware = HardwareModel()
        self.hardware = hardware
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    # -- tracing delegation ---------------------------------------------

    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a nested span on the run's tracer."""
        return self.tracer.span(name, **attrs)

    def advance(self, seconds: float) -> None:
        """Advance the simulated clock by a model-derived duration."""
        self.tracer.advance(seconds)

    # -- metrics delegation ---------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter from the run's registry."""
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        """The named gauge from the run's registry."""
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets=None) -> Histogram:
        """The named histogram from the run's registry."""
        if buckets is None:
            return self.metrics.histogram(name)
        return self.metrics.histogram(name, buckets)

    # -- checkpointing ---------------------------------------------------

    def capture(self) -> tuple:
        """The ``obs`` meta entry of a session checkpoint: every metric
        and the simulated clock (spans are not carried over)."""
        return {"obs": {"metrics": self.metrics.to_dict(),
                        "now_s": self.tracer.now_s}}, {}

    def restore(self, meta, arrays) -> None:
        """Load :meth:`capture` output back; the clock only moves
        forward.  An unobserved run's snapshot has nothing to load."""
        saved = meta["obs"]
        if saved is None:
            return
        self.metrics.load_dict(saved["metrics"])
        self.advance(max(0.0, float(saved["now_s"]) - self.tracer.now_s))

    # -- cost model ------------------------------------------------------

    def transfer_seconds(self, nbytes: float, requests: int = 0) -> float:
        """Simulated seconds to move ``nbytes`` over the master link,
        plus ``requests`` structure round-trip latencies."""
        return (nbytes / self.hardware.bytes_per_second
                + requests * self.hardware.request_latency_s)

    def compute_seconds(self, edges: float) -> float:
        """Simulated seconds to aggregate ``edges`` message-flow edges."""
        return edges / self.hardware.edges_per_second

    def sync_seconds(self, nbytes: float) -> float:
        """Simulated seconds for one synchronization round moving
        ``nbytes`` per worker."""
        return (nbytes / self.hardware.bytes_per_second
                + self.hardware.sync_latency_s)


def attach(target: object, observer: Optional[RunObserver]) -> None:
    """Point ``target.obs`` at ``observer`` (no-op when observer is
    ``None``) — how the trainer wires stores, meters, views and
    samplers that were constructed before observation was requested."""
    if observer is not None:
        target.obs = observer
