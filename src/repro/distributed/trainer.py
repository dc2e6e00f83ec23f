"""The synchronous distributed training loop (Algorithm 1).

:class:`DistributedTrainer` simulates a cluster of ``p`` workers in a
deterministic, sequential event loop.  Each round, every worker that
still has a mini-batch this epoch:

1. draws positive samples from its partition,
2. draws negative samples from its configured candidate space
   (local-only, or global via the shared store),
3. builds the computational graph through its
   :class:`~repro.distributed.views.WorkerGraphView` (remote accesses
   are charged to its communication meter),
4. computes the loss and backpropagates.

Synchronization is the :class:`~repro.distributed.sync.SyncStrategy`
the config names.  Per-epoch validation follows the paper's protocol:
the synchronized model is scored on the validation split, and the
weights with the best validation Hits@K are the ones tested.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..checkpoint.state import (
    capture_trainer_state,
    load_worker_state,
    strip_prefix,
)
from ..checkpoint.store import CheckpointStore
from ..eval.evaluator import EvalResult, Evaluator
from ..faults import FaultController
from ..graph.splits import EdgeSplit
from ..nn.loss import bce_with_logits
from ..nn.models import LinkPredictionModel, build_model
from ..nn.optim import Adam
from ..obs import LOSS_BUCKETS, RunObserver, RunReport, build_run_report
from ..partition.partitioned import PartitionedGraph
from ..sampling.loader import EdgeBatchLoader
from ..sampling.negative import (
    DegreeWeightedNegativeSampler,
    InBatchNegativeSampler,
    PerSourceUniformNegativeSampler,
)
from ..sampling.neighbor import NeighborSampler, check_fanouts
from .comm import GB, CommMeter, CommRecord
from .sync import broadcast_model, make_strategy
from .views import WorkerGraphView

#: Test/chaos instrumentation: a callable invoked parent-side at the
#: top of every round with ``(trainer, epoch, round)`` before any work
#: is dispatched.  The kill-driver harness uses it to SIGKILL the
#: coordinator at an exact seeded point; ``None`` (the default) costs
#: one comparison per round.
_ROUND_HOOK = None

#: Serializes hook swaps: harnesses may install/clear hooks from a
#: different thread than the coordinator loop reading them.
_ROUND_HOOK_LOCK = threading.Lock()


def set_round_hook(hook):
    """Install the round hook (``None`` clears it); returns the
    previous hook so callers can restore it."""
    global _ROUND_HOOK
    with _ROUND_HOOK_LOCK:
        previous = _ROUND_HOOK
        _ROUND_HOOK = hook
    return previous


@dataclass
class TrainConfig:
    """Hyperparameters shared by every training framework.

    Defaults follow the paper (Section V-A): 3-layer GNN, hidden 256,
    fanouts 25/10/5, batch 256, Adam with lr 1e-3, MLP edge predictor.
    Scaled-down runs override ``hidden_dim``/``epochs`` for speed.
    """

    gnn_type: str = "sage"
    hidden_dim: int = 256
    num_layers: int = 3
    fanouts: Sequence[int] = (25, 10, 5)
    predictor: str = "mlp"
    batch_size: int = 256
    lr: float = 1e-3
    epochs: int = 20
    dropout: float = 0.0
    num_heads: int = 1
    # Training-time negative sampling strategy: "uniform" (paper's
    # per-source uniform), "degree" (PinSage-style, ∝ degree^0.75) or
    # "in_batch" (recycle batch destinations).
    negative_sampler: str = "uniform"
    # Synchronization mode: "barrier" (canonical alias of the legacy
    # "grad" per-round all-reduce, today's default), "ps"
    # (parameter-server with bounded staleness), "async" (fully-async
    # pushes with seeded pulls), "local_sgd" (model averaging every
    # sync_every rounds), or the legacy values "grad"/"model".
    sync: str = "grad"
    sync_every_batches: int = 0   # 0 = once per epoch (model averaging)
    sync_topology: str = "allreduce"  # or "parameter_server"
    # Bounded-staleness knob for sync="ps": a worker pulls fresh server
    # weights once its version lag exceeds this many applied pushes
    # (0 = pull after every push, the sequential-consistency corner).
    max_staleness: int = 2
    # Local-SGD cadence for sync="local_sgd": model averaging every
    # this many trained rounds.
    sync_every: int = 4
    # Pull probability for sync="async": the seeded per-round coin a
    # worker flips to decide whether to refresh its replica.
    pull_prob: float = 0.5
    # Pre-computed update interleaving (repro.distributed.SyncPlan, or
    # its to_dict() form).  None derives one from the knobs above with
    # the run seed — see SyncPlan.for_config.
    sync_plan: Optional[object] = None
    cache_remote_features: bool = False  # epoch-scoped remote feature cache
    # Partition layout for runs that build their own PartitionedGraph
    # (repro.api / build_trainer): a repro.partition.PartitionSpec, a
    # plain strategy name, or the spec's to_dict() form — all
    # canonicalized to a PartitionSpec here.  None keeps the
    # framework's default strategy.
    partition: Optional[object] = None
    # Failure injection (legacy knob): probability that a worker's
    # contribution to a synchronization round is lost.  Compiles to a
    # FaultPlan via FaultPlan.from_probability — same RNG stream as the
    # pre-plan trainer, so old configs stay bit-identical.  Mutually
    # exclusive with fault_plan.
    worker_failure_prob: float = 0.0
    # Declarative fault schedule (repro.faults.FaultPlan, or its
    # to_dict() form).  None (and prob 0) means a fault-free run that
    # is bit-identical to pre-faults training.
    fault_plan: Optional[object] = None
    # How injected faults are survived: "drop" (contribution lost),
    # "retry" (bounded exponential backoff re-delivery), "restore"
    # (rehydrate from the last checkpoint + replay) or "elastic"
    # (continue with survivors, reweight the averages).
    recovery: str = "drop"
    # Cadence in epochs of the restore policy's restore points (every
    # backend; >= 1 under recovery="restore") and of the durable
    # session snapshots written when checkpoint_dir is set.
    checkpoint_every: int = 1
    # Per-operation budget: how long (simulated seconds for injected
    # stragglers, wall seconds for real child-process reads) a worker
    # may lag before it is treated as dead.
    fault_timeout_s: float = 30.0
    # Retry policy bounds: attempts per worker, and the base of the
    # exponential backoff schedule (simulated seconds).
    max_retries: int = 3
    retry_backoff_s: float = 0.05
    hits_k: int = 100
    eval_every: int = 1
    # Early stopping: stop after `patience` consecutive evaluations
    # without validation improvement (0 disables).
    patience: int = 0
    # Multiplicative learning-rate decay applied every `lr_decay_every`
    # epochs (1.0 disables).
    lr_decay: float = 1.0
    lr_decay_every: int = 1
    # Observability (repro.obs): record a span trace + metrics for the
    # run and attach the joined RunReport to TrainResult.report.  All
    # recorded durations are synthetic (timeline cost model), so
    # observed runs stay deterministic and observe=False runs are
    # bit-identical to uninstrumented ones.
    observe: bool = False
    # Execution backend: "serial" (default), "thread" or "process".
    # All three produce bit-identical results for the same seed — see
    # repro.distributed.backends.
    backend: str = "serial"
    # Expected worker count, 0 = decided by the trainer (num_parts).
    # When set it must match the cluster size at build time; it exists
    # so a fully self-describing config can be validated up front.
    num_workers: int = 0
    # Durable session checkpoints (repro.checkpoint): directory the
    # trainer writes atomic, checksummed full-session snapshots into,
    # every checkpoint_every epochs.  None disables durable
    # checkpointing (the restore recovery policy's in-memory restore
    # points are independent of this knob).
    checkpoint_dir: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        from .sync import (LEGACY_SYNC_MODES, PLANNED_SYNC_MODES,
                           SYNC_MODES, SyncPlan)
        if self.sync not in SYNC_MODES + LEGACY_SYNC_MODES:
            raise ValueError(
                f"sync must be one of {SYNC_MODES + LEGACY_SYNC_MODES}, "
                f"got {self.sync!r}")
        if self.sync == "barrier":
            # "barrier" is the canonical alias of the legacy per-round
            # gradient all-reduce; canonicalizing here keeps every
            # downstream dispatch (and bit-identity with pre-async
            # builds) trivially intact.
            self.sync = "grad"
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if self.sync_every < 1:
            raise ValueError("sync_every must be >= 1")
        if not 0.0 <= self.pull_prob <= 1.0:
            raise ValueError("pull_prob must be in [0, 1]")
        if isinstance(self.sync_plan, dict):
            # Accept the to_dict form so configs stay JSON-round-trippable.
            self.sync_plan = SyncPlan.from_dict(self.sync_plan)
        if (self.sync_plan is not None
                and not isinstance(self.sync_plan, SyncPlan)):
            raise ValueError(
                "sync_plan must be a SyncPlan (or its to_dict form), "
                f"got {type(self.sync_plan).__name__}")
        if self.sync_plan is not None and self.sync_plan.mode != self.sync:
            raise ValueError(
                f"sync_plan.mode {self.sync_plan.mode!r} does not match "
                f"sync={self.sync!r}")
        if self.sync in PLANNED_SYNC_MODES and self.num_workers == 1:
            import warnings
            warnings.warn(
                f"sync={self.sync!r} with num_workers=1 degrades to the "
                "barrier mode (reason: a one-worker cluster has no "
                "staleness to schedule)", RuntimeWarning, stacklevel=2)
            self.sync = "grad"
            self.sync_plan = None
        from .backends import BACKEND_NAMES
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES}, "
                f"got {self.backend!r}")
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.num_workers == 1 and self.backend != "serial":
            # A one-worker pool pays startup for zero overlap.
            import warnings
            warnings.warn(
                f"backend={self.backend!r} with num_workers=1 degrades "
                "to the serial backend (reason: a one-worker pool has "
                "nothing to parallelize)", RuntimeWarning, stacklevel=2)
            self.backend = "serial"
        if len(self.fanouts) != self.num_layers:
            raise ValueError("need one fanout per layer")
        check_fanouts(self.fanouts)
        if not 0.0 <= self.worker_failure_prob < 1.0:
            raise ValueError("worker_failure_prob must be in [0, 1)")
        from ..faults import RECOVERY_POLICIES, FaultPlan
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_POLICIES}, "
                f"got {self.recovery!r}")
        if isinstance(self.fault_plan, dict):
            # Accept the to_dict form so configs stay JSON-round-trippable.
            self.fault_plan = FaultPlan.from_dict(self.fault_plan)
        if (self.fault_plan is not None
                and not isinstance(self.fault_plan, FaultPlan)):
            raise ValueError(
                "fault_plan must be a FaultPlan (or its to_dict form), "
                f"got {type(self.fault_plan).__name__}")
        if self.fault_plan is not None and self.worker_failure_prob:
            raise ValueError(
                "fault_plan and worker_failure_prob are mutually "
                "exclusive; compile the probability into the plan with "
                "FaultPlan.from_probability")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_dir is not None:
            self.checkpoint_dir = os.fspath(self.checkpoint_dir)
            if self.checkpoint_every < 1:
                raise ValueError(
                    "checkpoint_dir needs checkpoint_every >= 1 "
                    "(epochs between durable session snapshots)")
        if self.recovery == "restore" and self.checkpoint_every < 1:
            raise ValueError(
                "recovery='restore' needs checkpointing enabled: set "
                "checkpoint_every >= 1 (epochs between restore points)")
        if self.fault_timeout_s <= 0:
            raise ValueError("fault_timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if self.negative_sampler not in ("uniform", "degree", "in_batch"):
            raise ValueError(
                "negative_sampler must be 'uniform', 'degree' or "
                "'in_batch'")
        if self.sync_topology not in ("allreduce", "parameter_server"):
            raise ValueError(
                "sync_topology must be 'allreduce' or 'parameter_server'")
        if self.partition is not None:
            # Accept PartitionSpec | strategy name | to_dict form, like
            # the FaultPlan/SyncPlan knobs above.
            from ..partition.registry import PartitionSpec
            self.partition = PartitionSpec.canonicalize(self.partition)


@dataclass
class EpochStats:
    """Per-epoch training record."""

    epoch: int
    mean_loss: float
    comm: CommRecord
    val: Optional[EvalResult] = None
    rounds: int = 0
    mfg_edges: int = 0  # message-flow edges computed (all workers)

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "EpochStats":
        """Rebuild a record from its ``dataclasses.asdict`` (JSON) form."""
        val = None if d["val"] is None else EvalResult(**d["val"])
        return cls(**{**d, "comm": CommRecord(**d["comm"]), "val": val})


@dataclass
class TrainResult:
    """Outcome of one training run."""

    framework: str
    test: EvalResult
    best_epoch: int
    history: List[EpochStats] = field(default_factory=list)
    comm_total: CommRecord = field(default_factory=CommRecord)
    num_workers: int = 1
    dropped_contributions: int = 0
    #: Fault/recovery counters from the run's FaultController (empty
    #: for fault-free runs) — crashes, retries, restores, respawns…
    faults: Dict[str, float] = field(default_factory=dict)
    #: Synchronization-mode telemetry: the resolved ``mode`` plus, for
    #: ps/async runs, push/pull counts and the observed staleness
    #: distribution (mean/max).  Barrier runs record only the mode.
    sync_stats: Dict[str, object] = field(default_factory=dict)
    #: Observability artifact (None unless ``TrainConfig.observe``).
    report: Optional[RunReport] = None

    @property
    def graph_data_gb_per_epoch(self) -> float:
        """Mean graph-data GB per epoch across all workers (paper's
        communication-cost metric)."""
        epochs = max(len(self.history), 1)
        return self.comm_total.graph_data_bytes / epochs / GB

    def val_curve(self) -> List[float]:
        """Validation Hits@K at each evaluated epoch, in order."""
        return [s.val.hits for s in self.history if s.val is not None]

    def digest(self) -> str:
        """Canonical sha256 over the run's observable outcome.

        Covers accuracy, the full epoch history, communication
        ledgers, fault counters and sync telemetry; floats are hashed
        via ``float.hex`` so the digest is exact (not print-rounded)
        and NaN losses hash stably.  Two runs with equal digests
        produced bit-identical training trajectories — this is the
        invariant the checkpoint/resume and cross-backend tests gate
        on.  ``report`` (the obs artifact) is excluded: it is derived
        from the same counters and only exists for observed runs.
        """
        def _f(x: float) -> str:
            return float(x).hex()

        payload = {
            "framework": self.framework,
            "num_workers": self.num_workers,
            "best_epoch": self.best_epoch,
            "test": [_f(self.test.hits), _f(self.test.auc),
                     int(self.test.k)],
            "comm_total": self.comm_total.to_dict(),
            "dropped": self.dropped_contributions,
            "faults": {k: _f(v)
                       for k, v in sorted(self.faults.items())},
            "sync_stats": {k: _f(v) if isinstance(v, float) else v
                           for k, v in sorted(self.sync_stats.items())},
            "history": [
                [s.epoch, _f(s.mean_loss), s.comm.to_dict(), s.rounds,
                 s.mfg_edges,
                 ([_f(s.val.hits), _f(s.val.auc), int(s.val.k)]
                  if s.val is not None else None)]
                for s in self.history],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def summary(self) -> str:
        """Human-readable report of the run (accuracy + comm ledger)."""
        total = self.comm_total
        epochs = max(len(self.history), 1)
        lines = [
            f"framework: {self.framework}",
            f"workers:   {self.num_workers}",
            f"epochs:    {len(self.history)} (best: {self.best_epoch})",
            f"test:      Hits@{self.test.k}={self.test.hits:.4f}, "
            f"AUC={self.test.auc:.4f}",
            "communication per epoch:",
            f"  features:  {total.feature_bytes / epochs / 2**20:.3f} MB",
            f"  structure: {total.structure_bytes / epochs / 2**20:.3f} MB",
            f"  sync:      {total.sync_bytes / epochs / 2**20:.3f} MB",
        ]
        if self.sync_stats.get("pushes"):
            lines.append(
                f"parameter server: {self.sync_stats['pushes']:g} pushes, "
                f"{self.sync_stats['pulls']:g} pulls, "
                f"mean staleness {self.sync_stats['mean_staleness']:.2f} "
                f"(max {self.sync_stats['max_staleness']:g})")
        if self.dropped_contributions:
            lines.append(
                f"dropped worker contributions: "
                f"{self.dropped_contributions}")
        if self.faults:
            events = ", ".join(f"{k}={v:g}" if isinstance(v, float)
                               else f"{k}={v}"
                               for k, v in sorted(self.faults.items()))
            lines.append(f"fault events: {events}")
        return "\n".join(lines)


class _Worker:
    """Per-worker state: model replica, optimizer, samplers, meter."""

    def __init__(
        self,
        part: int,
        view: WorkerGraphView,
        model: LinkPredictionModel,
        config: TrainConfig,
        positive_edges: np.ndarray,
        negative_candidates: np.ndarray,
        rng: np.random.Generator,
        obs: Optional[RunObserver] = None,
    ) -> None:
        self.part = part
        self.view = view
        self.model = model
        self.obs = obs
        self.optimizer = Adam(model.parameters(), lr=config.lr)
        self.sampler = NeighborSampler(config.fanouts, rng=rng)
        full_graph = view.partitioned.full
        if config.negative_sampler == "degree":
            self.negative_sampler = DegreeWeightedNegativeSampler(
                full_graph, candidates=negative_candidates, rng=rng)
        elif config.negative_sampler == "in_batch":
            self.negative_sampler = InBatchNegativeSampler(full_graph,
                                                           rng=rng)
        else:
            self.negative_sampler = PerSourceUniformNegativeSampler(
                full_graph, candidates=negative_candidates, rng=rng)
        self._in_batch = config.negative_sampler == "in_batch"
        self.loader = EdgeBatchLoader(positive_edges, config.batch_size,
                                      rng=rng)
        self.rng = rng
        if obs is not None:
            self.negative_sampler.obs = obs

    def train_batch(self, batch: np.ndarray) -> tuple:
        """Returns ``(loss_value, mfg_edges)`` for the batch."""
        obs = self.obs
        if obs is None:
            return self._run_batch(batch, None)
        with obs.span("batch", worker=self.part,
                      batch_size=int(batch.shape[0])):
            return self._run_batch(batch, obs)

    def _run_batch(self, batch: np.ndarray,
                   obs: Optional[RunObserver]) -> tuple:
        """One mini-batch; when observing, the sample/fetch/compute
        phases become child spans with timeline-model durations."""
        if self._in_batch:
            neg = self.negative_sampler.sample(batch)
        else:
            neg = self.negative_sampler.sample(batch[:, 0])
        pairs = np.concatenate([batch, neg], axis=0)
        labels = np.concatenate([np.ones(batch.shape[0]),
                                 np.zeros(neg.shape[0])])
        seeds, inverse = np.unique(pairs.ravel(), return_inverse=True)
        if obs is None:
            comp_graph = self.sampler.sample(self.view, seeds)
            features = self.view.fetch_features(comp_graph.input_nodes)
        else:
            meter = self.view.meter
            before = meter.current.structure_bytes if meter else 0
            with obs.span("sample", worker=self.part) as sp:
                comp_graph = self.sampler.sample(self.view, seeds)
                moved = (meter.current.structure_bytes - before
                         if meter else 0)
                seconds = obs.transfer_seconds(
                    moved, requests=1 if moved else 0)
                obs.advance(seconds)
                sp.attrs["structure_bytes"] = moved
            obs.counter("time.sample_s").inc(seconds)
            before = meter.current.feature_bytes if meter else 0
            with obs.span("fetch", worker=self.part) as sp:
                features = self.view.fetch_features(comp_graph.input_nodes)
                moved = (meter.current.feature_bytes - before
                         if meter else 0)
                seconds = obs.transfer_seconds(moved)
                obs.advance(seconds)
                sp.attrs["feature_bytes"] = moved
            obs.counter("time.fetch_s").inc(seconds)
        pair_idx = inverse.reshape(-1, 2)
        mfg_edges = sum(b.num_edges for b in comp_graph.blocks)
        compute_cm = (obs.span("compute", worker=self.part,
                               mfg_edges=mfg_edges)
                      if obs is not None else nullcontext())
        with compute_cm:
            scores = self.model(comp_graph, features,
                                pair_idx[:, 0], pair_idx[:, 1])
            loss = bce_with_logits(scores, labels)
            self.optimizer.zero_grad()
            loss.backward()
            if obs is not None:
                seconds = obs.compute_seconds(mfg_edges)
                obs.advance(seconds)
        loss_value = loss.item()
        if obs is not None:
            obs.counter("time.compute_s").inc(seconds)
            obs.counter("train.batches").inc(1)
            obs.counter("train.mfg_edges").inc(mfg_edges)
            obs.histogram("train.loss", LOSS_BUCKETS).observe(loss_value)
        return loss_value, mfg_edges


class LoopState:
    """What the epoch loop carries from one round to the next.

    ``_train_loop`` keeps these as attributes, not locals, so a snapshot
    taken anywhere — the epoch-boundary write or a round hook — holds
    the real history and best-validation weights.
    """

    def __init__(self) -> None:
        #: The epoch being run or last finished (-1: none yet) and the
        #: rounds finished in it.
        self.epoch = -1
        self.round = 0
        self.history: List[EpochStats] = []
        self.best_val = -1.0
        self.best_state: Optional[Dict[str, np.ndarray]] = None
        self.best_epoch = -1
        self.evals_since_best = 0

    def capture(self) -> tuple:
        """Position, history and best-validation bookkeeping as meta;
        the best weights as ``best.*`` arrays."""
        meta = {"epoch": self.epoch, "round": self.round,
                "history": [asdict(s) for s in self.history],
                "best": {"val": self.best_val, "epoch": self.best_epoch,
                         "evals_since_best": self.evals_since_best,
                         "has_state": self.best_state is not None}}
        return meta, {f"best.{name}": value
                      for name, value in (self.best_state or {}).items()}

    def restore(self, meta, arrays) -> None:
        """Load :meth:`capture` output back."""
        best = meta["best"]
        self.epoch, self.round = meta["epoch"], meta["round"]
        self.history = [EpochStats.from_dict(d) for d in meta["history"]]
        self.best_val = best["val"]
        self.best_epoch = best["epoch"]
        self.evals_since_best = best["evals_since_best"]
        self.best_state = (strip_prefix(arrays, "best.")
                           if best["has_state"] else None)


class WorkerSet:
    """The workers as one checkpoint component: every worker's model,
    optimizer moments and RNG stream, serialized where the worker lives
    (``backend.snapshot_workers`` — the child process on the process
    backend) and loaded back in this process, before a backend binds."""

    def __init__(self, trainer) -> None:
        self.trainer = trainer

    def capture(self) -> tuple:
        """One ``worker.NNNN.payload`` per worker, empty for a worker
        elastic recovery removed."""
        loop = self.trainer.loop
        payloads = self.trainer.backend.snapshot_workers(loop.epoch,
                                                         loop.round)
        return {}, {f"worker.{i:04d}.payload":
                    np.frombuffer(payload or b"", dtype=np.uint8)
                    for i, payload in enumerate(payloads)}

    def restore(self, meta, arrays) -> None:
        """Load every non-empty payload into its worker."""
        for i, worker in enumerate(self.trainer.workers):
            payload = arrays[f"worker.{i:04d}.payload"]
            if payload.size:
                load_worker_state(worker, payload.tobytes())


class DistributedTrainer:
    """Runs Algorithm 1 for any framework configuration.

    The framework-specific pieces are injected: the partitioned graph
    (strategy + mirroring already applied), one remote store shared by
    all workers (or ``None``), and the negative candidate space per
    worker.  ``correction_hook``, when given, is the sync strategy's
    post-sync step, run on the synchronized model — this is how LLCG's
    global correction step is implemented.
    """

    def __init__(
        self,
        framework: str,
        split: EdgeSplit,
        partitioned: PartitionedGraph,
        config: TrainConfig,
        remote_store=None,
        global_negatives: bool = False,
        correction_hook=None,
        positive_mode: str = "local",
        observer: Optional[RunObserver] = None,
        backend=None,
    ) -> None:
        if positive_mode not in ("local", "owned_cover"):
            raise ValueError(
                f"positive_mode must be 'local' or 'owned_cover', "
                f"got {positive_mode!r}")
        if (config.num_workers
                and config.num_workers != partitioned.num_parts):
            raise ValueError(
                f"TrainConfig.num_workers={config.num_workers} does not "
                f"match the partitioning ({partitioned.num_parts} parts)")
        if backend is None:
            backend = config.backend
        if isinstance(backend, str):
            from .backends import make_backend
            backend = make_backend(backend, partitioned.num_parts)
        self.backend = backend
        self.framework = framework
        self.split = split
        self.partitioned = partitioned
        self.config = config
        self.remote_store = remote_store
        self.correction_hook = correction_hook
        self.positive_mode = positive_mode
        if observer is None and config.observe:
            observer = RunObserver()
        self.observer = observer
        #: Build-time knobs that live outside TrainConfig (alpha,
        #: sparsifier choice); recorded in durable checkpoints so
        #: resume can rebuild the identical cluster.  build_trainer and
        #: SpLPG.fit overwrite this with their actual arguments.
        self.build_knobs = {"alpha": 0.15,
                            "sparsifier_kind": "approx_er"}
        #: The epoch loop's own state: ``train()`` continues from it.
        self.loop = LoopState()
        self._started = False
        self.meters = [CommMeter(name=f"meter.{part:04d}", obs=observer)
                       for part in range(partitioned.num_parts)]
        if observer is not None and remote_store is not None:
            remote_store.obs = observer
        self.evaluator = Evaluator(
            split, config.fanouts, k=config.hits_k,
            rng=np.random.default_rng(config.seed + 7919))

        master_rng = np.random.default_rng(config.seed)
        reference = self.build_replica()

        self.workers: List[_Worker] = []
        for part in range(partitioned.num_parts):
            view = WorkerGraphView(
                partitioned, part, remote=remote_store,
                meter=self.meters[part],
                cache_remote_features=config.cache_remote_features,
                obs=observer)
            model = self.build_replica()
            if global_negatives:
                candidates = view.global_candidate_nodes()
            else:
                candidates = view.local_candidate_nodes()
            positives = self._worker_positive_edges(part)
            worker_rng = np.random.default_rng(
                master_rng.integers(0, 2**63 - 1))
            self.workers.append(_Worker(
                part, view, model, config, positives, candidates, worker_rng,
                obs=observer))
        broadcast_model(reference, [w.model for w in self.workers])

        #: The one object that knows which ``config.sync`` mode runs.
        self.sync_strategy = make_strategy(self)
        #: Injects the run's faults and drives recovery; backends
        #: consult it for counters and elastic liveness.
        self.fault_controller = FaultController(self)

    def components(self) -> list:
        """Every stateful participant of the run as ``(name,
        component)``, in checkpoint order.  Each answers ``capture() ->
        (meta entries, named arrays)`` under its on-disk names and
        ``restore(meta, arrays)`` given the whole snapshot —
        :mod:`repro.checkpoint.state` loops over this list and knows
        nothing else.  State that must survive a resume belongs to one
        of these (``tests/test_state_closure.py`` enforces it)."""
        parts = [("workers", WorkerSet(self))]
        parts += [(meter.name, meter) for meter in self.meters]
        parts += [("loop", self.loop), ("evaluator", self.evaluator),
                  ("faults", self.fault_controller),
                  ("sync", self.sync_strategy)]
        if hasattr(self.correction_hook, "capture"):  # a stateful hook
            parts.append(("correction", self.correction_hook))
        if self.observer is not None:
            parts.append(("obs", self.observer))
        return parts

    def build_replica(self) -> LinkPredictionModel:
        """A freshly initialized model of the run's architecture and
        seed: what every replica (a parameter server's too) starts as."""
        config = self.config
        return build_model(
            config.gnn_type, self.split.train_graph.feature_dim,
            config.hidden_dim, num_layers=config.num_layers,
            predictor=config.predictor, dropout=config.dropout,
            num_heads=config.num_heads, seed=config.seed)

    # ------------------------------------------------------------------

    def _worker_positive_edges(self, part: int) -> np.ndarray:
        """Positive training edges for worker ``part``.

        ``positive_mode="local"``: edges the worker stores.  Mirrored
        partitions see every edge incident to an owned node (SpLPG
        trains cross-partition edges on both sides); induced partitions
        only see fully-internal edges — the lost cross-partition
        positives are part of the vanilla baselines' information loss.

        ``positive_mode="owned_cover"``: the complete data-sharing
        strategy.  Each graph edge is assigned to exactly one worker
        (its lower endpoint's owner), so the cluster jointly covers
        every positive edge each epoch exactly as centralized training
        does — remote neighborhoods/features for the non-local pieces
        are fetched from the master (and paid for).
        """
        if self.positive_mode == "owned_cover":
            owned = self.partitioned.owned_edges(part)
            if owned.shape[0]:
                return owned
        local = self.partitioned.local_graph(part).edge_list()
        if local.shape[0] == 0:
            # Degenerate partition (tiny graph + unlucky random
            # assignment): fall back to the ownership cover so the
            # worker still has something to iterate.
            local = self.partitioned.owned_edges(part)
        return local

    # ------------------------------------------------------------------

    def train(self) -> TrainResult:
        """Run Algorithm 1 to completion and return the result.

        The per-round batch work executes on the configured
        :mod:`execution backend <repro.distributed.backends>`; the
        synchronization collectives are the round barrier.  When an
        observer is attached, every epoch/round/batch/sync phase is
        traced on the simulated clock and the joined
        :class:`~repro.obs.report.RunReport` lands on
        ``TrainResult.report``.

        A trainer trains once, from ``self.loop`` on (epoch 0 when
        fresh, ``epoch + 1`` when restored).  A second call — after a
        finished run or one an exception cut short — would continue
        from half-advanced state, so it raises ``RuntimeError``.
        """
        if self._started:
            raise RuntimeError(
                "train() already ran on this trainer; build a new one "
                "(or rebuild_trainer() a checkpoint) to train again")
        self._started = True
        backend = self.backend
        backend.bind(self)
        wall_started = time.perf_counter()
        try:
            result = self._train_loop()
        finally:
            backend.close()
        if self.observer is not None and backend.parallel:
            # Real elapsed time of the whole run, alongside the modeled
            # (simulated-clock) timeline.
            self.observer.gauge("train.wall_clock_s").set(
                time.perf_counter() - wall_started)
            if result.report is not None:
                result.report = build_run_report(self.observer, result)
        return result

    def _train_loop(self) -> TrainResult:
        """The epoch/round loop, generic over the execution backend."""
        config = self.config
        obs = self.observer
        backend = self.backend
        strategy = self.sync_strategy
        models = [w.model for w in self.workers]
        loop = self.loop
        faults = self.fault_controller
        # Permanent worker removals a restored controller remembers
        # are replayed into the freshly bound backend.
        for i, alive in enumerate(faults.live):
            if not alive:
                backend.deactivate(i)

        for epoch in range(loop.epoch + 1, config.epochs):
            loop.epoch, loop.round = epoch, 0
            epoch_cm = (obs.span("epoch", epoch=epoch)
                        if obs is not None else nullcontext())
            epoch_started = obs.tracer.now_s if obs is not None else 0.0
            with epoch_cm:
                backend.begin_epoch()
                losses: List[float] = []
                epoch_mfg_edges = 0
                while not backend.all_exhausted():
                    round_cm = (obs.span("round", index=loop.round)
                                if obs is not None else nullcontext())
                    with round_cm:
                        if _ROUND_HOOK is not None:
                            _ROUND_HOOK(self, epoch, loop.round)
                        has_batch = backend.poll_batches()
                        decision = faults.plan_round(epoch, loop.round,
                                                     has_batch)
                        round_results = backend.train_round(
                            decision.train_mask)
                        for res in round_results:
                            if res is not None:
                                losses.append(res.loss)
                                epoch_mfg_edges += res.mfg_edges
                        loop.round += 1
                        if obs is not None:
                            obs.counter("train.rounds").inc(1)
                        # Nothing trained (exhausted loaders and/or
                        # injected failures): nothing to synchronize.
                        if any(decision.train_mask):
                            strategy.after_round(
                                epoch, loop.round - 1, round_results,
                                decision, faults)
                strategy.end_epoch(faults)

                comm = CommRecord()
                for meter in self.meters:
                    comm += meter.end_epoch()
                mean_loss = float(np.mean(losses)) if losses else float("nan")

                val = None
                if ((epoch + 1) % config.eval_every == 0
                        or epoch == config.epochs - 1):
                    backend.refresh_eval_model()
                    val_cm = (obs.span("validate", epoch=epoch)
                              if obs is not None else nullcontext())
                    with val_cm:
                        val = self.evaluator.validate(models[0])
                    if obs is not None:
                        obs.counter("train.evals").inc(1)
                        obs.gauge("train.val_hits").set(float(val.hits))
                    if val.hits > loop.best_val:
                        loop.best_val = val.hits
                        loop.best_state = models[0].state_dict()
                        loop.best_epoch = epoch
                        loop.evals_since_best = 0
                    else:
                        loop.evals_since_best += 1
                loop.history.append(EpochStats(
                    epoch=epoch, mean_loss=mean_loss, comm=comm, val=val,
                    rounds=loop.round, mfg_edges=epoch_mfg_edges))
            if obs is not None:
                obs.counter("train.epochs").inc(1)
                obs.histogram("epoch.duration_s").observe(
                    obs.tracer.now_s - epoch_started)

            if (config.patience and val is not None
                    and loop.evals_since_best >= config.patience):
                break
            if (config.lr_decay < 1.0
                    and (epoch + 1) % config.lr_decay_every == 0):
                backend.scale_lr(config.lr_decay)
                strategy.scale_lr(config.lr_decay)
            if config.checkpoint_dir is not None and (
                    (epoch + 1) % config.checkpoint_every == 0
                    or epoch == config.epochs - 1):
                # After the lr decay so the snapshot holds the decayed
                # rate; a patience break above skips the write, so
                # resume re-evaluates (and re-takes) the break.
                self._write_checkpoint()

        if loop.best_state is not None:
            models[0].load_state_dict(loop.best_state)
        else:
            backend.refresh_eval_model()
        test_cm = obs.span("test") if obs is not None else nullcontext()
        with test_cm:
            test = self.evaluator.test(models[0])

        total = CommRecord()
        for stats in loop.history:
            total += stats.comm
        result = TrainResult(
            framework=self.framework,
            test=test,
            best_epoch=loop.best_epoch,
            history=loop.history,
            comm_total=total,
            num_workers=len(self.workers),
            dropped_contributions=faults.dropped_contributions,
            faults=faults.summary(),
            sync_stats=strategy.stats(),
        )
        if obs is not None:
            result.report = build_run_report(obs, result)
        return result

    # ------------------------------------------------------------------

    def _write_checkpoint(self) -> None:
        """Capture the full session state and durably persist it."""
        obs = self.observer
        store = CheckpointStore(self.config.checkpoint_dir)
        cm = (obs.span("checkpoint.write", epoch=self.loop.epoch)
              if obs is not None else nullcontext())
        with cm:
            info = store.write(capture_trainer_state(self),
                               self.loop.epoch, self.loop.round)
        if obs is not None:
            obs.counter("checkpoint.writes").inc(1)
            obs.counter("checkpoint.bytes_written").inc(info.nbytes)
