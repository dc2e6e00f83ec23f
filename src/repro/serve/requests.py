"""Serving request and response types.

Two request shapes, matching what a link-prediction service answers:

* :class:`ScoreRequest` — "how likely is the edge (u, v)?"; returns a
  single logit.
* :class:`TopKRequest` — "which k nodes should we recommend linking to
  ``node``?"; returns the k highest-scoring candidate nodes that are
  not ``node`` itself and (when the cluster has a neighbor store) not
  already neighbors.

Every admitted request produces a :class:`RequestOutcome` carrying the
routing decision, the simulated-clock timestamps the micro-batch
scheduler assigned, and the numeric result; a whole run rolls up into
a :class:`ServeReport` whose :meth:`~ServeReport.digest` is the
bit-identity witness compared across execution backends.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from ..distributed.comm import CommRecord

#: Outcome statuses: served, rejected at admission, or still queued
#: (the last only transiently, never in a finished report).
STATUSES = ("ok", "shed", "pending")

#: One outcome's fixed digest fields in native byte order: index,
#: shard, status code and rerouted flag as int64, then the three
#: simulated timestamps as float64.
_OUTCOME = struct.Struct("=4q3d")
_SCORE = struct.Struct("=d")


@dataclass(frozen=True, slots=True)
class ScoreRequest:
    """Pairwise scoring: the logit for the candidate edge ``(u, v)``."""

    u: int
    v: int


@dataclass(frozen=True, slots=True)
class TopKRequest:
    """Top-k link recommendation for ``node`` (self/known-neighbor
    candidates excluded)."""

    node: int
    k: int = 10

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"top-k needs k >= 1, got {self.k}")


Request = Union[ScoreRequest, TopKRequest]


@dataclass(slots=True)
class RequestOutcome:
    """One request's routing, timing and result."""

    index: int
    request: Request
    status: str = "pending"
    shard: int = -1
    rerouted: bool = False
    arrival_s: float = 0.0
    dispatch_s: float = 0.0
    completion_s: float = 0.0
    score: Optional[float] = None
    topk_nodes: Optional[np.ndarray] = None
    topk_scores: Optional[np.ndarray] = None

    @property
    def latency_s(self) -> float:
        """Simulated end-to-end latency (0 for shed requests: they are
        rejected at admission time)."""
        if self.status != "ok":
            return 0.0
        return self.completion_s - self.arrival_s


@dataclass
class ServeReport:
    """A finished serving run: outcomes, counters and the comm ledger."""

    outcomes: List[RequestOutcome]
    counters: Dict[str, int] = field(default_factory=dict)
    comm: CommRecord = field(default_factory=CommRecord)
    backend: str = "serial"

    # -- derived metrics -------------------------------------------------

    def completed(self) -> List[RequestOutcome]:
        """Outcomes that were actually served, in admission order."""
        return [o for o in self.outcomes if o.status == "ok"]

    def latencies_s(self) -> np.ndarray:
        """Simulated latencies of the completed requests."""
        return np.array([o.latency_s for o in self.completed()],
                        dtype=np.float64)

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of simulated latency (0 when no
        request completed)."""
        lats = self.latencies_s()
        return float(np.percentile(lats, q)) if lats.size else 0.0

    def throughput_rps(self) -> float:
        """Completed requests per simulated second, from first arrival
        to last completion."""
        done = self.completed()
        if not done:
            return 0.0
        start = min(o.arrival_s for o in done)
        end = max(o.completion_s for o in done)
        span = end - start
        return len(done) / span if span > 0 else float(len(done))

    def shed_rate(self) -> float:
        """Fraction of admitted traffic rejected by the bounded queue."""
        total = len(self.outcomes)
        if not total:
            return 0.0
        return sum(o.status == "shed" for o in self.outcomes) / total

    def cache_hit_rate(self) -> float:
        """Embedding-cache hit rate over the whole run."""
        hits = self.counters.get("embed_cache_hits", 0)
        misses = self.counters.get("embed_cache_misses", 0)
        total = hits + misses
        return hits / total if total else 0.0

    # -- identity --------------------------------------------------------

    def digest(self) -> str:
        """Bit-exact fingerprint of the run (hex sha256).

        Hashes every outcome's status, routing, simulated timestamps
        and numeric results as raw float64/int64 bytes — two reports
        agree on a digest exactly when the serving run produced
        identical results, which is the cross-backend determinism
        contract the test suite asserts.
        """
        chunks = []
        for o in self.outcomes:
            chunks.append(_OUTCOME.pack(
                o.index, o.shard, STATUSES.index(o.status), int(o.rerouted),
                o.arrival_s, o.dispatch_s, o.completion_s))
            if o.score is not None:
                chunks.append(_SCORE.pack(o.score))
            if o.topk_nodes is not None:
                chunks.append(
                    np.asarray(o.topk_nodes, dtype=np.int64).tobytes())
                chunks.append(
                    np.asarray(o.topk_scores, dtype=np.float64).tobytes())
        chunks.append(np.int64([self.comm.feature_bytes,
                                self.comm.structure_bytes,
                                self.comm.sync_bytes]).tobytes())
        return hashlib.sha256(b"".join(chunks)).hexdigest()

    # -- presentation ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Serializable roll-up (what the bench harness emits)."""
        return {
            "backend": self.backend,
            "requests": len(self.outcomes),
            "completed": len(self.completed()),
            "throughput_rps": self.throughput_rps(),
            "p50_latency_s": self.latency_percentile(50),
            "p99_latency_s": self.latency_percentile(99),
            "cache_hit_rate": self.cache_hit_rate(),
            "shed_rate": self.shed_rate(),
            "counters": dict(self.counters),
            "comm": self.comm.to_dict(),
            "digest": self.digest(),
        }

    def summary(self) -> str:
        """Human-readable report of the serving run."""
        done = self.completed()
        lines = [
            f"requests:        {len(self.outcomes)} "
            f"({len(done)} served, "
            f"{sum(o.status == 'shed' for o in self.outcomes)} shed)",
            f"throughput:      {self.throughput_rps():.1f} req/s (simulated)",
            f"latency p50/p99: {self.latency_percentile(50) * 1e3:.3f} / "
            f"{self.latency_percentile(99) * 1e3:.3f} ms",
            f"embed cache:     {self.cache_hit_rate():.1%} hit rate",
            f"rerouted:        {self.counters.get('rerouted', 0)}",
            "communication:",
            f"  features:  {self.comm.feature_bytes / 2**20:.3f} MB",
            f"  structure: {self.comm.structure_bytes / 2**20:.3f} MB",
        ]
        return "\n".join(lines)
