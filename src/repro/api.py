"""repro.api — the unified front door to the reproduction.

Every experiment in the repo boils down to the same sequence: load a
graph, split its edges, partition it across simulated workers, train
one of the paper's frameworks, and read the accuracy/communication
result.  Historically each step had its own entry point
(``load_dataset`` / ``split_edges`` / ``build_trainer`` /
``run_framework``) plus an :class:`~repro.experiments.config.ExperimentScale`
preset whose knobs partially overlapped ``TrainConfig``.  This module
collapses that into two shapes:

One-liner — :func:`run`::

    import repro
    result = repro.run(framework="splpg", dataset="cora",
                       workers=4, backend="process")
    print(result.summary())

Chainable session — :class:`Session`::

    session = (repro.api.Session(graph, split)
               .partition(4)
               .framework("splpg")
               .backend("thread")
               .train())
    scores = session.score(pairs)

:func:`resolve_config` is the *single* reconciliation point between
``ExperimentScale`` knobs and ``TrainConfig`` fields; both
``ExperimentScale.train_config`` and :func:`run` delegate to it, so a
scale preset and explicit overrides can never disagree silently.

The low-level entry points ``build_trainer`` and ``run_framework``
live in :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .core.frameworks import CENTRALIZED, build_trainer, framework_spec
from .distributed.inference import DistributedScorer, InferenceResult
from .distributed.trainer import DistributedTrainer, TrainConfig, TrainResult
from .graph.graph import Graph
from .graph.splits import EdgeSplit, split_edges

__all__ = ["run", "Session", "SessionStateError", "resolve_config"]


class SessionStateError(RuntimeError):
    """A :class:`Session` method was called in the wrong lifecycle
    state (e.g. :meth:`Session.export` before :meth:`Session.train`).

    Subclasses ``RuntimeError`` so pre-existing callers that caught
    the bare error keep working; the message always says which call is
    missing.
    """


def _stream_model_spec(config: TrainConfig, feature_dim: int) -> dict:
    """The :func:`repro.nn.models.build_model` kwargs for a trainer's
    model — what :meth:`StreamDriver.resume` needs to rebuild it."""
    return {"gnn_type": config.gnn_type, "in_dim": int(feature_dim),
            "hidden_dim": config.hidden_dim,
            "num_layers": config.num_layers,
            "predictor": config.predictor, "dropout": config.dropout,
            "num_heads": config.num_heads}

#: TrainConfig fields an ExperimentScale preset provides defaults for.
_SCALE_FIELDS = ("hidden_dim", "num_layers", "fanouts", "batch_size",
                 "epochs", "hits_k", "eval_every", "sync", "seed")


#: The :class:`ExperimentScale` presets, each named after the
#: classmethod that builds it.
_SCALE_PRESETS = ("smoke", "quick", "paper")


def _scale_preset(name: str):
    """Look up an :class:`ExperimentScale` preset by name."""
    from .experiments.config import ExperimentScale

    if name not in _SCALE_PRESETS:
        raise ValueError(
            f"unknown scale preset {name!r}; choose from "
            f"{tuple(sorted(_SCALE_PRESETS))}")
    return getattr(ExperimentScale, name)()


def resolve_config(scale=None, **overrides) -> TrainConfig:
    """Reconcile an experiment scale with ``TrainConfig`` overrides.

    ``scale`` may be ``None`` (paper-default ``TrainConfig``), a preset
    name from :data:`_SCALE_PRESETS` (``"smoke"`` | ``"quick"`` |
    ``"paper"``), or any object
    carrying the :data:`_SCALE_FIELDS` attributes (duck-typed so
    :class:`~repro.experiments.config.ExperimentScale` can delegate
    here without a circular import).  Explicit ``overrides`` always win
    over scale-provided defaults.
    """
    if isinstance(scale, str):
        scale = _scale_preset(scale)
    base = {}
    if scale is not None:
        for name in _SCALE_FIELDS:
            if hasattr(scale, name):
                base[name] = getattr(scale, name)
        base.setdefault("gnn_type", "sage")
    base.update(overrides)
    return TrainConfig(**base)


def _resolve_split(dataset, graph, split, scale,
                   seed: Optional[int] = None) -> EdgeSplit:
    """The :class:`EdgeSplit` behind a data source: a ready ``split``,
    a ``dataset`` name loaded at ``scale`` (default: the ``quick``
    preset), or a ``graph`` split by the ``seed + 101`` stream."""
    if split is not None:
        return split
    if dataset is not None:
        if isinstance(scale, str) or scale is None:
            from .experiments.config import ExperimentScale
            scale = (_scale_preset(scale) if isinstance(scale, str)
                     else ExperimentScale.quick())
        return scale.load_split(dataset)
    return split_edges(graph, rng=np.random.default_rng(seed + 101))


def run(
    framework: str = "splpg",
    dataset: Optional[str] = None,
    *,
    split: Optional[EdgeSplit] = None,
    graph: Optional[Graph] = None,
    workers: int = 4,
    backend: str = "serial",
    scale=None,
    alpha: float = 0.15,
    sparsifier_kind: str = "approx_er",
    resume: Optional[str] = None,
    stream=None,
    **cfg,
) -> TrainResult:
    """Train a framework end to end and return its :class:`TrainResult`.

    Exactly one data source must be given: a ``dataset`` name (loaded
    at the resolved scale), a ``graph`` (edges split here, seeded by
    the config seed), or a pre-made ``split``.  ``workers`` is the
    number of simulated workers (partitions), ``backend`` the execution
    engine (``serial`` | ``thread`` | ``process``), ``scale`` an
    optional :class:`~repro.experiments.config.ExperimentScale` or
    preset name, and ``**cfg`` any :class:`TrainConfig` override.

    ``stream`` routes the trained model into the deterministic
    streaming loop (:mod:`repro.stream`): pass a
    :class:`~repro.stream.StreamConfig` (or its dict form) and the
    call returns the :class:`~repro.stream.StreamReport` instead of
    the train result (which rides along as ``report.train_result``).

    ``resume`` continues a previous run from the durable checkpoint
    directory it wrote (``checkpoint_dir=`` / ``Session.checkpoint``):
    the stored :class:`TrainConfig` — framework, workers, backend and
    all — is rebuilt verbatim, so ``**cfg`` overrides are rejected and
    the ``framework``/``workers``/``backend``/``scale`` arguments are
    ignored.  The data source must be the original workload: its split
    fingerprint is checked against the checkpoint
    (:class:`~repro.checkpoint.CheckpointMismatchError` otherwise).

    >>> import repro
    >>> result = repro.run("splpg", dataset="cora", workers=4,
    ...                    backend="process", scale="smoke")  # doctest: +SKIP
    """
    sources = sum(x is not None for x in (dataset, split, graph))
    if sources != 1:
        raise ValueError(
            "exactly one of dataset=, graph= or split= must be given "
            f"(got {sources})")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if stream is not None:
        if resume is not None:
            raise ValueError(
                "stream= and resume= cannot be combined; resume the "
                "training run first, then stream over the session")
        # A bare graph is split by the session, once it knows its seed.
        session = Session(graph if graph is not None else
                          _resolve_split(dataset, None, split, scale))
        session.partition(workers).framework(framework)
        session.backend(backend).scale(scale)
        session.configure(alpha=alpha, **cfg)
        session.train()
        return session.stream(stream)
    if resume is not None:
        if cfg:
            raise ValueError(
                "resume= rebuilds the checkpoint's stored TrainConfig "
                f"verbatim; overrides {sorted(cfg)} are not allowed — "
                "drop resume= to start a fresh run with them")
        from .checkpoint import load_checkpoint, rebuild_trainer

        meta, state = load_checkpoint(resume)
        split = _resolve_split(dataset, graph, split, scale,
                               seed=int(meta["config"]["seed"]))
        return rebuild_trainer(meta, state, split).train()
    config = resolve_config(scale, backend=backend, num_workers=workers,
                            **cfg)
    split = _resolve_split(dataset, graph, split, scale, seed=config.seed)
    from .core.frameworks import run_framework as _run_framework

    if framework == "centralized":
        # One worker owns the whole graph: workers/backend don't apply.
        config = resolve_config(scale, **cfg)
        return _run_framework("centralized", split, workers, config)
    return _run_framework(framework, split, workers, config, alpha=alpha,
                          rng=np.random.default_rng(config.seed),
                          sparsifier_kind=sparsifier_kind)


class Session:
    """Chainable builder over the load → partition → train pipeline.

    Each configuration step returns ``self`` so a whole experiment
    reads as one expression::

        result = (Session(graph, split)
                  .partition(4)
                  .framework("splpg")
                  .backend("process")
                  .configure(epochs=20)
                  .train())

    After :meth:`train`, the session retains the trainer, so
    :meth:`score` can serve predictions from the same simulated
    cluster that trained the model.
    """

    def __init__(self, graph: Union[Graph, EdgeSplit],
                 split: Optional[EdgeSplit] = None) -> None:
        if isinstance(graph, EdgeSplit):
            if split is not None:
                raise ValueError(
                    "pass either Session(split) or Session(graph, split), "
                    "not both")
            split = graph
            graph = None
        self._graph = graph
        self._split = split
        self._workers = 2
        self._framework = "splpg"
        self._backend = "serial"
        self._scale = None
        self._overrides: dict = {}
        self._alpha = 0.15
        self._trainer: Optional[DistributedTrainer] = None
        self._result: Optional[TrainResult] = None
        #: Fingerprint of the split the trained artifacts correspond
        #: to, and the reason they went stale (set by :meth:`stream`).
        self._trained_fingerprint: Optional[str] = None
        self._stale_reason: Optional[str] = None

    # -- chainable configuration ----------------------------------------

    def partition(self, workers: Optional[int] = None,
                  strategy=None, *, mirror: bool = False,
                  **knobs) -> "Session":
        """Set the worker count and/or the partition layout.

        ``workers`` is the number of simulated workers (partitions) —
        the original single-argument form, still the common case.
        ``strategy`` additionally selects a partition layout: a
        registered strategy name, a ready
        :class:`~repro.partition.PartitionSpec`, or a spec dict;
        ``mirror`` and strategy-specific ``**knobs`` (e.g. vertex-cut's
        ``balance_factor``, LDG's ``order``) are folded into the spec.
        The spec is validated eagerly against the partitioner registry,
        mirroring the ``.sync()``/``.faults()`` idiom::

            session.partition(4)                          # count only
            session.partition(4, "vertex_cut")
            session.partition(strategy="metis", mirror=True)  # SpLPG
        """
        if workers is not None:
            if workers < 1:
                raise ValueError("workers must be >= 1")
            self._workers = int(workers)
        if strategy is not None:
            from .partition import PartitionSpec

            if isinstance(strategy, PartitionSpec):
                if mirror or knobs:
                    raise ValueError(
                        "pass mirror/knobs inside the PartitionSpec, "
                        "not alongside it")
                spec = strategy
            elif isinstance(strategy, str):
                spec = PartitionSpec(strategy=strategy, mirror=mirror,
                                     knobs=knobs)
            else:
                if mirror or knobs:
                    raise ValueError(
                        "pass mirror/knobs inside the spec dict, not "
                        "alongside it")
                spec = PartitionSpec.canonicalize(strategy)
            self._overrides["partition"] = spec
        elif mirror or knobs:
            raise ValueError(
                "partition mirror/knobs need a strategy; e.g. "
                "session.partition(4, 'metis', mirror=True)")
        return self

    def framework(self, name: str) -> "Session":
        """Select the training framework (one of ``FRAMEWORK_NAMES``,
        or ``"centralized"``: the same trainer at one worker)."""
        framework_spec(name)   # ValueError on an unknown name
        self._framework = name
        return self

    def backend(self, name: str) -> "Session":
        """Select the execution backend for training and scoring."""
        from .distributed.backends import BACKEND_NAMES

        if name not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {name!r}; choose from {BACKEND_NAMES}")
        self._backend = name
        return self

    def scale(self, scale) -> "Session":
        """Attach an ``ExperimentScale`` (object or preset name)."""
        self._scale = scale
        return self

    def configure(self, **overrides) -> "Session":
        """Override any :class:`TrainConfig` field (alpha included)."""
        self._alpha = overrides.pop("alpha", self._alpha)
        self._overrides.update(overrides)
        return self

    def faults(self, plan=None, recovery: str = "drop",
               **knobs) -> "Session":
        """Attach a fault plan and recovery policy to the session.

        ``plan`` may be a :class:`~repro.faults.FaultPlan`, its
        ``to_dict`` form, or a bare float (compiled through
        :meth:`FaultPlan.from_probability`, the legacy knob).
        ``recovery`` is one of :data:`repro.faults.RECOVERY_POLICIES`;
        ``**knobs`` forwards the remaining fault-tolerance fields
        (``checkpoint_every``, ``fault_timeout_s``, ``max_retries``,
        ``retry_backoff_s``).

            session.faults(FaultPlan.random(4, epochs=10, seed=7),
                           recovery="restore", checkpoint_every=2)
        """
        if isinstance(plan, (int, float)) and not isinstance(plan, bool):
            from .faults import FaultPlan
            plan = FaultPlan.from_probability(float(plan))
        if plan is not None:
            self._overrides["fault_plan"] = plan
        self._overrides["recovery"] = recovery
        self._overrides.update(knobs)
        return self

    def sync(self, mode: str = "barrier", **knobs) -> "Session":
        """Select the gradient/model synchronisation mode.

        ``mode`` is one of ``barrier`` | ``ps`` | ``async`` |
        ``local_sgd`` (legacy ``grad``/``model`` still accepted);
        ``**knobs`` forwards the mode's tuning fields —
        ``max_staleness`` (ps), ``pull_prob`` (async), ``sync_every``
        (local_sgd) — plus an optional pre-built ``sync_plan``.

            session.sync("ps", max_staleness=4)
            session.sync("local_sgd", sync_every=8)
        """
        from .distributed.sync import LEGACY_SYNC_MODES, SYNC_MODES

        if mode not in SYNC_MODES + LEGACY_SYNC_MODES:
            raise ValueError(
                f"unknown sync mode {mode!r}; choose from "
                f"{SYNC_MODES + LEGACY_SYNC_MODES}")
        allowed = {"max_staleness", "pull_prob", "sync_every",
                   "sync_plan", "sync_topology"}
        unknown = set(knobs) - allowed
        if unknown:
            raise ValueError(
                f"unknown sync knob(s) {sorted(unknown)}; choose from "
                f"{sorted(allowed)}")
        self._overrides["sync"] = mode
        self._overrides.update(knobs)
        return self

    def checkpoint(self, path, every: int = 1) -> "Session":
        """Write durable session checkpoints into ``path`` while
        training, every ``every`` epochs (see :mod:`repro.checkpoint`).

        A later :meth:`resume` (or :func:`run` with ``resume=``) on the
        same directory continues a killed run bit-identically::

            session.checkpoint("ckpts", every=2).train()
        """
        import os

        if every < 1:
            raise ValueError("every must be >= 1 (epochs between "
                             "durable snapshots)")
        self._overrides["checkpoint_dir"] = os.fspath(path)
        self._overrides["checkpoint_every"] = int(every)
        return self

    def restore(self, path) -> "Session":
        """Rebuild the trainer from the newest checkpoint in ``path``.

        The stored config decides the framework, worker count and
        backend (the session's own settings are replaced); the
        session's graph/split must be the original workload — its
        fingerprint is verified.  Restoring does not train: use
        :meth:`resume` to continue the run, or :meth:`export` to
        freeze the checkpointed best-validation weights directly.
        """
        from .checkpoint import load_checkpoint, rebuild_trainer

        meta, state = load_checkpoint(path)
        self._split = _resolve_split(None, self._graph, self._split, None,
                                     int(meta["config"]["seed"]))
        self._trainer = rebuild_trainer(meta, state, self._split)
        self._framework = meta["framework"]
        self._workers = int(meta["num_workers"])
        self._backend = self._trainer.config.backend
        self._result = None
        # rebuild_trainer checked the split against this very value.
        self._trained_fingerprint = meta["split_fingerprint"]
        self._stale_reason = None
        return self

    def resume(self, path) -> TrainResult:
        """Continue a checkpointed run to completion.

        Equivalent to :meth:`restore` followed by training the
        restored trainer; the returned result is bit-identical to the
        uninterrupted run's (same :meth:`TrainResult.digest`).
        """
        self.restore(path)
        self._result = self._trainer.train()
        return self._result

    # -- execution ------------------------------------------------------

    def config(self) -> TrainConfig:
        """The fully-reconciled :class:`TrainConfig` this session runs
        (``centralized`` runs on one worker)."""
        workers = (1 if self._framework == CENTRALIZED.name
                   else self._workers)
        return resolve_config(self._scale, backend=self._backend,
                              num_workers=workers, **self._overrides)

    def train(self) -> TrainResult:
        """Build the trainer for the current configuration and run it."""
        config = self.config()
        self._split = _resolve_split(None, self._graph, self._split, None,
                                     config.seed)
        self._trainer = build_trainer(
            framework_spec(self._framework), self._split,
            config.num_workers, config, alpha=self._alpha,
            rng=np.random.default_rng(config.seed))
        self._result = self._trainer.train()
        from .checkpoint.state import split_fingerprint

        self._trained_fingerprint = split_fingerprint(self._split)
        self._stale_reason = None
        return self._result

    @property
    def result(self) -> Optional[TrainResult]:
        """The last :meth:`train` outcome (``None`` before training)."""
        return self._result

    def _check_fresh(self, action: str) -> None:
        """Refuse to serve artifacts of a graph that has moved on.

        Two staleness sources are checked: an explicit mark left by
        :meth:`stream` when its arrival plan mutated the graph, and an
        in-place mutation of the split arrays themselves (the stored
        fingerprint no longer matches).  Either raises the typed
        :class:`~repro.stream.StaleArtifactError` so callers can
        re-train, re-embed (:meth:`stream`), or restore explicitly.
        """
        from .checkpoint.state import split_fingerprint
        from .stream.errors import StaleArtifactError

        if self._stale_reason is not None:
            raise StaleArtifactError(
                f"cannot {action}: {self._stale_reason}; re-train on "
                "the evolved graph (or serve through stream(), whose "
                "re-embedding tracks mutations)")
        if (self._trained_fingerprint is not None
                and split_fingerprint(self._split)
                != self._trained_fingerprint):
            raise StaleArtifactError(
                f"cannot {action}: the split was mutated after "
                "training (fingerprint mismatch); the trained model "
                "no longer corresponds to this graph")

    def stream(self, config=None, *, observer=None, **knobs):
        """Run a deterministic streaming loop over the trained model.

        Replays a seeded :class:`~repro.stream.ArrivalPlan` of edge
        insertions/deletions/feature drift against the training graph:
        shard storage updates incrementally (re-partitioning through
        the session's partition spec when triggers fire), embeddings
        refresh by affected-vertex frontier or scheduled full pass,
        and each re-embedding is a gated, versioned hot-swap candidate
        for a live serving cluster (see :mod:`repro.stream`).

        ``config`` is a :class:`~repro.stream.StreamConfig`, its dict
        form, or ``None`` with ``**knobs`` as field overrides.
        Returns the :class:`~repro.stream.StreamReport`; its digest is
        bit-identical on every backend.  Afterwards the session's
        static artifacts are *stale* (the graph moved on): ``score()``
        and ``export()`` raise
        :class:`~repro.stream.StaleArtifactError` until re-trained.
        """
        if self._trainer is None:
            raise SessionStateError(
                "this session has no trained model to stream over: "
                "call train(), or restore a checkpoint with restore() "
                "/ resume(), before stream()")
        self._check_fresh("stream")
        from .partition import PartitionSpec
        from .stream import StreamConfig, StreamDriver

        if isinstance(config, dict):
            config = StreamConfig.from_dict(config)
        elif config is None:
            config = StreamConfig(**knobs)
        elif knobs:
            raise ValueError(
                "pass overrides inside the StreamConfig, not alongside "
                f"it (got {sorted(knobs)})")
        trainer = self._trainer
        graph = trainer.partitioned.full
        spec = (trainer.config.partition
                or PartitionSpec("metis",
                                 mirror=trainer.partitioned.mirror))
        driver = StreamDriver(
            trainer.workers[0].model, graph, spec,
            num_parts=trainer.partitioned.num_parts, config=config,
            backend=self._backend if self._backend in
            ("serial", "thread", "process") else "serial",
            observer=observer,
            model_spec=_stream_model_spec(trainer.config,
                                          graph.feature_dim))
        report = driver.run()
        report.train_result = self._result
        mutated = (report.counters.get("inserted", 0)
                   + report.counters.get("deleted", 0)
                   + report.counters.get("drifted", 0))
        if mutated:
            self._stale_reason = (
                f"the graph was mutated by stream() ({mutated} "
                "applied event(s))")
        return report

    def export(self, path=None):
        """Freeze the trained model into a servable artifact.

        Materializes every node's exact full-neighbor embedding, splits
        the table by shard ownership and bundles the decoder weights
        (see :func:`repro.serve.export_servable`).  When ``path`` is
        given the artifact is also written to disk (checksummed npz).
        """
        if self._trainer is None:
            raise SessionStateError(
                "this session has no trained model to export: call "
                "train(), or restore a checkpoint with restore() / "
                "resume(), before export()")
        self._check_fresh("export")
        from .serve import export_servable

        trainer = self._trainer
        model = trainer.workers[0].model
        best_state = trainer.loop.best_state
        if self._result is None and best_state is not None:
            # Restored-but-untrained session: export the checkpoint's
            # best-validation weights — the ones train() would leave on
            # worker 0 — from a scratch replica; the workers stay as loaded.
            model = trainer.build_replica()
            model.load_state_dict(best_state)
        artifact = export_servable(model, trainer.partitioned)
        if path is not None:
            artifact.save(path)
        return artifact

    def score(self, pairs, fanouts=None) -> InferenceResult:
        """Serve predictions for node pairs from the trained cluster.

        Uses the session's backend; the model is worker 0's trained
        (synchronized) replica and remote fetches are charged exactly
        as during training.
        """
        if self._trainer is None:
            raise SessionStateError(
                "this session has no trained model to serve: call "
                "train(), or restore a checkpoint with restore() / "
                "resume(), before score()")
        self._check_fresh("score")
        trainer = self._trainer
        config = trainer.config
        scorer = DistributedScorer(
            trainer.workers[0].model, trainer.partitioned,
            remote=trainer.remote_store,
            fanouts=fanouts if fanouts is not None else config.fanouts,
            rng=np.random.default_rng(config.seed + 271),
            backend=self._backend,
        )
        return scorer.score(pairs)
