"""Deterministic streaming: live graphs, incremental everything.

The streaming subsystem closes the loop the paper's static pipeline
leaves open — graphs change after training.  It keeps the repo's core
discipline (bit-exact replay on every execution backend) while the
graph itself evolves:

1. :class:`ArrivalPlan` — a seeded, replayable edge stream.  Every
   insertion, deletion and feature-drift event derives from
   ``(seed, tick)``, the same trick :class:`~repro.faults.FaultPlan`
   and the sync schedules use, so the identical stream replays on
   serial, thread and process backends.
2. :class:`MutableGraph` + :class:`ShardedState` — incremental graph
   updates under frozen shard ownership.  Each delta advances the
   shard layout (re-assembled from the snapshot) with
   every shipped byte charged to the
   :class:`~repro.distributed.comm.CommMeter`; imbalance or
   replication triggers fire a re-partition through the existing
   partitioner registry (including vertex-cut).
3. :class:`Reembedder` — per-layer frontier recompute (each layer's
   table only where that layer's inputs changed, the final table in
   patch blocks) or scheduled full refresh, so incremental and full
   re-embedding agree to the last bit.
4. :class:`RolloutGate` + :class:`~repro.serve.cluster.ServingCluster`
   hot swaps — each re-embedding is a versioned, checksummed rollout
   candidate, gated on digest equality and an AUC floor; accepted
   candidates swap into the live cluster with in-flight requests
   pinned to their admission-time version, rejected ones roll back.

:class:`StreamDriver` runs the whole loop tick by tick and emits a
:class:`StreamReport` whose :meth:`~StreamReport.digest` is
bit-identical across backends, fault plans and checkpoint/resume
boundaries.  The ``stream/`` cells of ``scripts/golden.py`` pin exactly
that.
"""

from .driver import (
    STREAM_STATE_SCHEMA,
    StreamConfig,
    StreamDriver,
    StreamReport,
    TickRecord,
)
from .errors import StaleArtifactError, StreamError, StreamStateError
from .mutable import GraphDelta, MutableGraph
from .plan import STREAM_EVENT_KINDS, ArrivalPlan, StreamEvent
from .reembed import Reembedder, affected_frontier
from .rollout import GateDecision, RolloutGate, probe_pairs, score_pairs
from .shards import ShardedState

__all__ = [
    "ArrivalPlan",
    "GateDecision",
    "GraphDelta",
    "MutableGraph",
    "Reembedder",
    "RolloutGate",
    "STREAM_EVENT_KINDS",
    "STREAM_STATE_SCHEMA",
    "ShardedState",
    "StaleArtifactError",
    "StreamConfig",
    "StreamDriver",
    "StreamError",
    "StreamEvent",
    "StreamReport",
    "StreamStateError",
    "TickRecord",
    "affected_frontier",
    "probe_pairs",
    "score_pairs",
]
