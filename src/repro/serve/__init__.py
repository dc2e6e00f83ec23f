"""Deterministic online serving for trained link-prediction models.

The serving subsystem turns a trained
:class:`~repro.nn.models.LinkPredictionModel` into a low-latency,
fault-tolerant online service — the natural deployment step after the
paper's distributed *training* study — while keeping the repo's core
discipline: every run is bit-exactly reproducible on every execution
backend.

Pipeline:

1. :func:`export_servable` freezes the trained model into a versioned,
   checksummed :class:`ServableArtifact` (per-shard materialized node
   embeddings + decoder weights).
2. :class:`ServingCluster` loads the artifact and serves
   :class:`ScoreRequest` / :class:`TopKRequest` streams with dynamic
   micro-batching, bounded admission queues (explicit load shedding),
   per-shard LRU caches, and fault-plan-driven shard outages routed
   around via the same fallback machinery training-time scoring uses.
3. The load harness (:mod:`repro.serve.workload`) replays seeded
   open-loop and closed-loop request streams and reports simulated
   throughput, latency percentiles, cache hit rates and shed rates.

The ``serve/`` cells of ``scripts/golden.py`` pin the report digest of
seven request / fault / cache / decoder regimes on every backend.
"""

from .artifact import (
    ARTIFACT_SCHEMA,
    ServableArtifact,
    artifact_from_table,
    export_servable,
    materialize_embeddings,
    predictor_kind_of,
)
from .cache import LRUCache
from .cluster import SERVE_BACKENDS, ServingCluster
from .requests import (
    Request,
    RequestOutcome,
    ScoreRequest,
    ServeReport,
    TopKRequest,
)
from .scheduler import Flush, MicroBatchScheduler, ServeFaultSchedule
from .workload import (
    ClosedLoopWorkload,
    OpenLoopWorkload,
    synthetic_requests,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ClosedLoopWorkload",
    "Flush",
    "LRUCache",
    "MicroBatchScheduler",
    "OpenLoopWorkload",
    "Request",
    "RequestOutcome",
    "SERVE_BACKENDS",
    "ScoreRequest",
    "ServableArtifact",
    "ServeFaultSchedule",
    "ServeReport",
    "ServingCluster",
    "TopKRequest",
    "artifact_from_table",
    "export_servable",
    "materialize_embeddings",
    "predictor_kind_of",
    "synthetic_requests",
]
