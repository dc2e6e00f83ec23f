"""Simulated distributed runtime: comm accounting, stores, workers, sync."""

from .comm import (
    BYTES_PER_EDGE,
    BYTES_PER_EDGE_WEIGHT,
    BYTES_PER_NODE_ID,
    FEATURE_ITEMSIZE,
    GB,
    CommMeter,
    CommRecord,
)
from .backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from .commodel import CommEstimate, estimate_epoch_comm
from .inference import DistributedScorer, InferenceResult
from .timeline import (
    EpochTimeline,
    HardwareModel,
    estimate_epoch_time,
    timeline_from_result,
)
from .store import RemoteGraphStore, SparsifiedRemoteStore
from .sync import (
    SYNC_MODES,
    ParameterServer,
    SyncPlan,
    average_gradients,
    average_models,
    broadcast_model,
    ps_message_nbytes,
    sync_bytes_per_worker,
)
from .trainer import (
    DistributedTrainer,
    EpochStats,
    TrainConfig,
    TrainResult,
)
from .views import WorkerGraphView

__all__ = [
    "BYTES_PER_EDGE",
    "BYTES_PER_EDGE_WEIGHT",
    "BYTES_PER_NODE_ID",
    "FEATURE_ITEMSIZE",
    "GB",
    "CommMeter",
    "CommRecord",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "CommEstimate",
    "estimate_epoch_comm",
    "DistributedScorer",
    "InferenceResult",
    "EpochTimeline",
    "HardwareModel",
    "estimate_epoch_time",
    "timeline_from_result",
    "RemoteGraphStore",
    "SparsifiedRemoteStore",
    "SYNC_MODES",
    "ParameterServer",
    "SyncPlan",
    "average_gradients",
    "average_models",
    "broadcast_model",
    "ps_message_nbytes",
    "sync_bytes_per_worker",
    "DistributedTrainer",
    "EpochStats",
    "TrainConfig",
    "TrainResult",
    "WorkerGraphView",
]
