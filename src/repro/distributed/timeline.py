"""Epoch-timeline model: where does wall-clock time go?

The paper reports end-to-end training times of hours and argues that
graph-data transfer is the dominant distributed overhead.  This module
models one synchronous training epoch's wall-clock from first
principles so "time-to-epoch" can be compared across frameworks
without GPUs:

* **compute** — proportional to the number of message-flow edges a
  worker processes (the dominant FLOP term of GNN aggregation);
* **network** — bytes fetched from the master over a link of
  ``bandwidth_gbps``, plus a per-request latency for every structure
  round-trip;
* **synchronization** — the ring all-reduce sync payload over the
  same link, paid once per round.

Workers proceed in lock-step rounds (the synchronous barrier), so each
round costs the *maximum* over workers — stragglers, not averages,
set the pace.  All inputs come from a finished
:class:`~repro.distributed.trainer.TrainResult` plus hardware
constants, so the model can be replayed against any measured run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .comm import CommRecord, GB


@dataclass(frozen=True)
class HardwareModel:
    """Hardware constants for the timeline model.

    Defaults approximate one V100-class device per worker with a
    10 Gb/s master link — the paper's Lambda instance ballpark.
    Throughput and bandwidth must be strictly positive (a zero would
    silently produce infinite epoch times); latencies may be zero but
    not negative.
    """

    edges_per_second: float = 5e8      # message-flow edge throughput
    bandwidth_gbps: float = 10.0       # master <-> worker link
    request_latency_s: float = 200e-6  # per structure round-trip
    sync_latency_s: float = 50e-6      # per collective

    def __post_init__(self) -> None:
        if self.edges_per_second <= 0:
            raise ValueError("edges_per_second must be positive")
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth_gbps must be positive")
        if self.request_latency_s < 0:
            raise ValueError("request_latency_s must be non-negative")
        if self.sync_latency_s < 0:
            raise ValueError("sync_latency_s must be non-negative")

    @property
    def bytes_per_second(self) -> float:
        """Link bandwidth in bytes/second (from ``bandwidth_gbps``)."""
        return self.bandwidth_gbps * 1e9 / 8.0


@dataclass
class EpochTimeline:
    """Wall-clock breakdown of one (average) epoch."""

    compute_s: float
    network_s: float
    sync_s: float

    @property
    def total_s(self) -> float:
        """Sum of all three phases."""
        return self.compute_s + self.network_s + self.sync_s

    def breakdown(self) -> Dict[str, float]:
        """Phase durations plus the total, as a plain dict."""
        return {"compute_s": self.compute_s, "network_s": self.network_s,
                "sync_s": self.sync_s, "total_s": self.total_s}


def estimate_epoch_time(
    comm: CommRecord,
    num_workers: int,
    edges_processed: float,
    rounds: int,
    hardware: Optional[HardwareModel] = None,
    structure_requests: Optional[int] = None,
    edges_per_worker: Optional[Sequence[float]] = None,
) -> EpochTimeline:
    """Model one epoch's wall-clock time.

    Parameters
    ----------
    comm:
        The epoch's communication record (all workers combined).
    edges_processed:
        Total message-flow edges computed across all workers.
    rounds:
        Synchronization rounds in the epoch (= max worker batches).
    structure_requests:
        Remote structure round-trips; defaults to one per round per
        worker that communicates at all.
    edges_per_worker:
        Per-worker message-flow edge counts.  When given (length must
        equal ``num_workers``), the synchronous barrier makes the
        *maximum* — the straggler — set the compute pace instead of
        the balanced-partition mean.
    """
    hw = hardware or HardwareModel()
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if edges_per_worker is not None:
        if len(edges_per_worker) != num_workers:
            raise ValueError(
                f"edges_per_worker has {len(edges_per_worker)} entries "
                f"for {num_workers} workers")
        if any(e < 0 for e in edges_per_worker):
            raise ValueError("edges_per_worker entries must be >= 0")
        # Lock-step barrier: every round waits for the busiest worker,
        # so the straggler's edge count is the one that matters.
        compute_s = max(edges_per_worker) / hw.edges_per_second
    else:
        # Balanced-partition approximation: the mean, with the barrier
        # effect folded into edges_per_second.
        compute_s = edges_processed / max(num_workers, 1) / hw.edges_per_second
    network_bytes = comm.graph_data_bytes / max(num_workers, 1)
    if structure_requests is None:
        structure_requests = rounds if comm.graph_data_bytes else 0
    network_s = (network_bytes / hw.bytes_per_second
                 + structure_requests * hw.request_latency_s)
    sync_s = (comm.sync_bytes / max(num_workers, 1) / hw.bytes_per_second
              + rounds * hw.sync_latency_s)
    return EpochTimeline(compute_s=compute_s, network_s=network_s,
                         sync_s=sync_s)


def timeline_from_result(result, hardware: Optional[HardwareModel] = None
                         ) -> EpochTimeline:
    """Average-epoch timeline of a finished
    :class:`~repro.distributed.trainer.TrainResult`.

    Uses the work statistics the trainer records per epoch: actual
    message-flow edges computed, synchronization rounds, and the
    communication ledger — no guessing.
    """
    epochs = max(len(result.history), 1)
    comm = CommRecord()
    total_edges = 0
    total_rounds = 0
    for stats in result.history:
        comm += stats.comm
        total_edges += stats.mfg_edges
        total_rounds += stats.rounds
    per_epoch = CommRecord(
        feature_bytes=comm.feature_bytes // epochs,
        structure_bytes=comm.structure_bytes // epochs,
        sync_bytes=comm.sync_bytes // epochs,
    )
    return estimate_epoch_time(
        per_epoch,
        result.num_workers,
        edges_processed=total_edges / epochs,
        rounds=max(1, total_rounds // epochs),
        hardware=hardware,
    )
