"""Model synchronization: barriers, parameter servers and local SGD.

Algorithm 1 (lines 29-30) synchronizes by averaging worker gradients
every mini-batch; the baselines use periodic model averaging (FedAvg
style).  SpLPG supports both — the paper reports that their prediction
performance is "more or less the same" and uses model averaging for
the headline numbers.  Both are *barrier* modes: every worker reaches
the collective before any worker proceeds.

This module also implements the asynchronous alternatives the paper
leaves unexplored.  Every ``TrainConfig(sync=)`` name is one of three
algorithms, each a :class:`SyncStrategy` over the backends' round
protocol (:data:`STRATEGIES` is the one name → class table,
:func:`make_strategy` the one place a name is resolved):

* :class:`GradAllReduce` — ``"barrier"``, canonical name of the legacy
  ``"grad"``: the per-round all-reduce, bit-identical to pre-async
  builds;
* :class:`PeriodicAverage` — the legacy ``"model"`` (FedAvg every
  ``sync_every_batches`` batches, or once per epoch) and
  ``"local_sgd"`` (every ``sync_every`` rounds);
* :class:`ParameterServer` — ``"ps"`` (bounded staleness: workers push
  gradients and pull weights back only when their version lag exceeds
  ``max_staleness``) and ``"async"`` (pushes in a seeded interleaved
  order, pulls on seeded coin flips: unbounded staleness).

Determinism follows the ``FaultPlan`` trick: a seeded :class:`SyncPlan`
pre-computes every interleaving decision (push order, pull coin flips,
averaging rounds) from ``(seed, epoch, round)`` alone, so each mode is
replayable and bit-identical same-seed across the serial, thread and
process execution backends.

The two barrier reductions, :func:`average_gradients` and
:func:`average_models`, are pure functions over the per-worker
gradient / weight vectors (:class:`~repro.nn.module.ParameterVector`)
the backends' round protocol collects, stacked ``(workers, P)``;
delivering the result and charging for it is the protocol's job
(:mod:`repro.distributed.backends`).

Sync traffic is charged to each worker's meter in the ``sync`` bucket:
barrier modes charge a ring all-reduce (:func:`sync_bytes_per_worker`),
while ``ps``/``async`` charge one
:func:`ps_message_nbytes` payload per push and per pull.  Parameters
travel as float32.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..checkpoint.state import strip_prefix
from ..nn.models import LinkPredictionModel
from ..nn.optim import Adam
from .comm import FEATURE_ITEMSIZE, CommMeter

#: A worker's gradient vector and per-parameter presence flags
#: (:meth:`~repro.nn.module.ParameterVector.gradient`).
Gradient = Tuple[np.ndarray, np.ndarray]

#: First-class ``TrainConfig(sync=)`` modes.  ``"barrier"`` is the
#: canonical name of the legacy ``"grad"`` per-round all-reduce; the
#: legacy values ``"grad"`` and ``"model"`` stay accepted.
SYNC_MODES = ("barrier", "ps", "async", "local_sgd")

#: Legacy ``TrainConfig(sync=)`` values (both barrier-family).
LEGACY_SYNC_MODES = ("grad", "model")

#: Modes whose update interleaving is driven by a :class:`SyncPlan`.
PLANNED_SYNC_MODES = ("ps", "async", "local_sgd")


def average_gradients(
    grads: Sequence[Optional[Gradient]],
    participating: Optional[Sequence[bool]] = None,
) -> Optional[Gradient]:
    """The all-reduce's arithmetic (Algorithm 1 line 29): the mean of
    the participants' gradient vectors.

    ``grads[i]`` is worker *i*'s :data:`Gradient` (``None``: it trained
    nothing this round) and ``participating`` additionally masks
    workers whose contribution never arrived.  The participants'
    ``(workers, P)`` stack is summed from 0 down the worker axis and
    divided by their number, so a parameter only some have (the others
    read 0) is still divided by every participant, and one nobody has
    is absent from the mean.  The sum runs in the vectors' dtype
    (float32, as replicas train).  Returns ``None`` when nobody
    participates.  Every replica then installs the same mean, so
    identical optimizer states take identical steps.
    """
    active = [g for i, g in enumerate(grads) if g is not None
              and (participating is None or participating[i])]
    if not active:
        return None
    vectors, present = zip(*active)
    total = np.add.reduce(np.stack(vectors), axis=0, initial=0.0)
    return total / len(active), np.logical_or.reduce(present)


def average_models(
    weights: Sequence[Optional[np.ndarray]],
    participating: Optional[Sequence[bool]] = None,
) -> Optional[np.ndarray]:
    """FedAvg-style model averaging [40]: the element-wise mean of the
    participants' weight vectors.

    ``weights[i]`` is worker *i*'s replica vector (``None`` for a
    worker that is gone) and ``participating`` restricts the mean to
    the workers whose sync messages arrived (partial averaging, PSGD-PA
    style).  Returns ``None`` when nobody participates.
    """
    included = [w for i, w in enumerate(weights) if w is not None
                and (participating is None or participating[i])]
    if not included:
        return None
    return np.mean(np.stack(included), axis=0)


def broadcast_model(source: LinkPredictionModel,
                    targets: Sequence[LinkPredictionModel]) -> None:
    """Copy ``source`` weights into every target (Algorithm 1 line 16)."""
    for t in targets:
        t.vector.load(source.vector.values)


def sync_bytes_per_worker(param_nbytes: int, num_workers: int) -> int:
    """Bytes one worker sends+receives in a synchronization round: a
    ring all-reduce moves ``2 (p-1)/p`` times the parameter payload per
    worker (reduce-scatter + all-gather), the standard NCCL cost model.
    """
    if num_workers <= 1:
        return 0
    return int(2 * param_nbytes * (num_workers - 1) / num_workers)


def ps_message_nbytes(param_nbytes: int) -> int:
    """Wire bytes of one parameter-server message (push or pull).

    A push uploads the full gradient, a pull downloads the full model;
    both move exactly the float32 parameter payload, so the cost of a
    PS round is ``pushes + pulls`` payloads rather than a collective's
    ``2 (p-1)/p`` — the trade the staleness frontier measures.
    """
    return int(param_nbytes)


@dataclass(frozen=True)
class SyncPlan:
    """A seeded, declarative schedule of asynchronous update decisions.

    Replayability is the whole point: every decision an async schedule
    makes — the order pushes reach the server, whether a worker pulls
    after pushing, which rounds average models — is derived from
    ``(seed, epoch, round)`` alone, never from wall-clock arrival or
    call order.  The same plan therefore produces the same interleaving
    on the serial, thread and process backends, which is what makes
    ``ps``/``async``/``local_sgd`` runs bit-identical same-seed (the
    ``FaultPlan`` determinism trick applied to synchronization).

    ``mode`` selects which decisions are consulted: ``"ps"`` uses
    ``max_staleness`` (forced pull once the version lag exceeds it),
    ``"async"`` uses ``pull_prob`` (seeded per-worker coin flip each
    round), ``"local_sgd"`` uses ``sync_every`` (model averaging every
    that many rounds).  Unused knobs are carried but ignored.
    """

    mode: str
    num_workers: int
    seed: int = 0
    max_staleness: int = 2
    pull_prob: float = 0.5
    sync_every: int = 4

    def __post_init__(self) -> None:
        """Validate the mode and knob ranges."""
        if self.mode not in PLANNED_SYNC_MODES:
            raise ValueError(
                f"SyncPlan.mode must be one of {PLANNED_SYNC_MODES}, "
                f"got {self.mode!r}")
        if self.num_workers < 1:
            raise ValueError("SyncPlan.num_workers must be >= 1")
        if self.max_staleness < 0:
            raise ValueError("SyncPlan.max_staleness must be >= 0")
        if not 0.0 <= self.pull_prob <= 1.0:
            raise ValueError("SyncPlan.pull_prob must be in [0, 1]")
        if self.sync_every < 1:
            raise ValueError("SyncPlan.sync_every must be >= 1")

    # -- seeded decisions -----------------------------------------------

    def _round_rng(self, epoch: int, rnd: int) -> np.random.Generator:
        """The decision stream for one ``(epoch, round)`` cell.

        Seeded from the plan seed plus the cell coordinates through a
        ``SeedSequence``, so decisions are independent of the order in
        which rounds (or backends) ask for them.
        """
        return np.random.default_rng(
            (int(self.seed), int(epoch), int(rnd)))

    def push_order(self, epoch: int, rnd: int,
                   participants: Sequence[int]) -> List[int]:
        """The order participants' pushes reach the server this round.

        A seeded permutation of ``participants`` — the deterministic
        stand-in for nondeterministic network arrival order.  Barrier
        modes never call this.
        """
        participants = list(participants)
        order = self._round_rng(epoch, rnd).permutation(len(participants))
        return [participants[j] for j in order]

    def should_pull(self, epoch: int, rnd: int, worker: int,
                    staleness: int) -> bool:
        """Whether ``worker`` pulls fresh weights after its push.

        ``ps``: pull exactly when the post-push version lag exceeds
        ``max_staleness`` (the bounded-staleness contract).  ``async``:
        a seeded per-worker Bernoulli draw with ``pull_prob`` —
        staleness is unbounded.  ``local_sgd`` never pulls.
        """
        if self.mode == "ps":
            return staleness > self.max_staleness
        if self.mode == "async":
            rng = np.random.default_rng(
                (int(self.seed), int(epoch), int(rnd), int(worker)))
            return bool(rng.random() < self.pull_prob)
        return False

    def is_sync_round(self, rounds_since_sync: int) -> bool:
        """Whether a local-SGD averaging round is due.

        ``rounds_since_sync`` counts trained rounds since the last
        model average; averaging fires every ``sync_every`` rounds.
        """
        return rounds_since_sync >= self.sync_every

    @classmethod
    def for_config(cls, config, num_workers: int) -> "SyncPlan":
        """Derive the plan a :class:`TrainConfig` implies on
        ``num_workers`` workers: the plan seed is the run seed, so the
        schedule is pinned by the same knob that pins everything else.
        """
        return cls(mode=config.sync, num_workers=num_workers,
                   seed=config.seed, max_staleness=config.max_staleness,
                   pull_prob=config.pull_prob,
                   sync_every=config.sync_every)


class SyncStrategy:
    """One synchronisation algorithm, as the rest of the system sees it.

    A strategy answers five questions, so nobody else names modes:
    :attr:`want_grads` (must ``train`` replies carry the gradients?),
    :meth:`after_round`, :meth:`end_epoch`, :meth:`stats`, and
    :meth:`capture` / :meth:`restore`.  It is built on its own state
    (:meth:`for_trainer`), :meth:`bind`-ed to the trainer whose cluster
    it synchronises (the backends' idiom), and reaches the workers only
    through the backend's round protocol.
    Shared here: the traced ``sync`` span with its vertex-cut replica
    charge, and LLCG's correction as the post-sync step.
    """

    want_grads = False

    def __init__(self, mode: str) -> None:
        #: The resolved ``TrainConfig.sync`` name: the ``sync`` span's
        #: ``mode`` attribute and ``sync_stats["mode"]``.
        self.mode = mode
        #: Vertex-cut mirror-reconciliation bytes charged so far.
        self.replica_sync_total = 0
        self.trainer = None
        # Per-worker bytes of one reconciliation (vertex cut only).
        self._replica_nbytes: Optional[List[int]] = None

    @classmethod
    def for_trainer(cls, trainer, mode: str, plan: Optional[SyncPlan]):
        """The strategy ``mode`` names, configured from ``trainer``."""
        return cls(mode)

    def bind(self, trainer) -> "SyncStrategy":
        """Attach to ``trainer``.  On a vertex-cut layout every sync
        event ships each mirrored node's hidden state to its master and
        the averaged copy back (2 × |mirrors| × hidden_dim floats) —
        what vertex cut trades its zero feature fetches for."""
        self.trainer = trainer
        partitioned = trainer.partitioned
        if partitioned.edge_partitioned:
            self._replica_nbytes = [
                2 * int(partitioned.mirror_nodes(part).size)
                * trainer.config.hidden_dim * FEATURE_ITEMSIZE
                for part in range(partitioned.num_parts)]
        return self

    def after_round(self, epoch, rnd, results, decision, faults) -> None:
        """Synchronise once round ``rnd`` of ``epoch`` has trained
        somebody: ``results[i]`` is worker *i*'s ``RoundResult`` or
        ``None``, ``decision`` the fault layer's train/sync masks,
        ``faults`` the run's ``FaultController``."""
        raise NotImplementedError

    def end_epoch(self, faults) -> None:
        """Leave every live replica at one consensus model."""
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        """``TrainResult.sync_stats`` (replica bytes: vertex cut only)."""
        out: Dict[str, object] = {"mode": self.mode}
        if self._replica_nbytes is not None:
            out["replica_sync_bytes"] = self.replica_sync_total
        return out

    def capture(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """``(meta entries, named arrays)`` a durable checkpoint stores
        of this strategy, under their on-disk names."""
        return ({"server": None,
                 "replica_sync_total": self.replica_sync_total}, {})

    def restore(self, meta, arrays) -> None:
        """Load :meth:`capture` output back (given the whole snapshot)."""
        self.replica_sync_total = int(meta["replica_sync_total"])

    def _sync_event(self, dispatch: Callable[[], None],
                    faults=None) -> None:
        """``dispatch()`` plus the replica charge of every worker (with
        ``faults``: every live one; coordinator-side, so one ledger on
        every backend), traced as one ``sync`` span lasting worker 0's
        payload on the link."""
        trainer = self.trainer
        obs = trainer.observer
        live = None if faults is None or faults.all_live else faults.live
        before = trainer.meters[0].current.sync_bytes
        with (obs.span("sync", mode=self.mode) if obs is not None
              else nullcontext()) as sp:
            dispatch()
            for part, nbytes in enumerate(self._replica_nbytes or ()):
                if nbytes and (live is None or live[part]):
                    trainer.meters[part].charge_sync(nbytes)
                    self.replica_sync_total += nbytes
            if obs is not None:
                moved = trainer.meters[0].current.sync_bytes - before
                seconds = obs.sync_seconds(moved)
                obs.advance(seconds)
                sp.attrs["sync_bytes"] = moved
        if obs is not None:
            obs.counter("time.sync_s").inc(seconds)

    def _correct(self) -> None:
        """The post-sync step: a server-side correction (LLCG), if any."""
        if self.trainer.correction_hook is not None:
            self.trainer.backend.run_correction(
                self.trainer.correction_hook)


class GradAllReduce(SyncStrategy):
    """``grad`` / ``barrier``: all-reduce the gradients every round
    (Algorithm 1 line 29), so replicas never diverge; the correction
    runs once per epoch, the default model-averaging cadence."""

    want_grads = True

    def after_round(self, epoch, rnd, results, decision, faults) -> None:
        """Average the gradients that arrived, step every replica."""
        if not any(decision.sync_mask):
            return
        trainer = self.trainer
        self._sync_event(
            lambda: trainer.backend.apply_gradients(
                decision.sync_mask, obs=trainer.observer),
            faults)
        trainer.backend.step_all()
        faults.barrier()

    def end_epoch(self, faults) -> None:
        """Replicas are already synchronized: only the correction."""
        self._correct()


class PeriodicAverage(SyncStrategy):
    """``model`` / ``local_sgd``: step locally, average the models
    every ``every`` trained rounds (0 = never mid-epoch) and once for
    the epoch's tail; the correction follows every average.  The names
    differ only in where ``every`` comes from (``sync_every_batches``
    vs the plan's ``sync_every``); whether an average is due is
    :meth:`SyncPlan.is_sync_round`'s call either way."""

    def __init__(self, every: int, mode: str = "model") -> None:
        super().__init__(mode)
        self.every = int(every)
        self._cadence = (
            SyncPlan(mode="local_sgd", num_workers=1, sync_every=self.every)
            if self.every else None)
        self._rounds_since = 0

    @classmethod
    def for_trainer(cls, trainer, mode: str, plan: Optional[SyncPlan]):
        """On the plan's cadence when the mode is a planned one."""
        return cls(trainer.config.sync_every_batches if plan is None
                   else plan.sync_every, mode)

    def after_round(self, epoch, rnd, results, decision, faults) -> None:
        """Local optimizer steps; an average when one is due."""
        self.trainer.backend.step_participants(decision.train_mask)
        self._rounds_since += 1
        if (self._cadence is not None
                and self._cadence.is_sync_round(self._rounds_since)):
            self._average(faults)

    def end_epoch(self, faults) -> None:
        """Average the epoch's tail so validation sees the consensus."""
        if self._cadence is None or self._rounds_since:
            self._average(faults)

    def stats(self) -> Dict[str, object]:
        """A planned mode also reports its cadence."""
        out = super().stats()
        if self.mode in PLANNED_SYNC_MODES:
            out["sync_every"] = self.every
        return out

    def _average(self, faults) -> None:
        """One averaging barrier over the workers whose sync messages
        all arrived, then the correction."""
        trainer = self.trainer
        participating = faults.model_sync_mask() if faults.enabled else None
        self._sync_event(
            lambda: trainer.backend.sync_models(
                obs=trainer.observer, participating=participating),
            faults)
        self._correct()
        faults.barrier()
        self._rounds_since = 0


class ParameterServer(SyncStrategy):
    """The server replica for ``sync="ps"`` / ``sync="async"`` runs.

    Lives in the trainer (parent) process on every backend: workers
    compute gradients on their possibly-stale local weights, and the
    server applies each push sequentially — load the pushed gradient,
    take one optimizer step — in the :class:`SyncPlan`'s seeded arrival
    order.  Because the application is parent-side pure numpy in a
    deterministic order, the server trajectory is bit-identical across
    execution backends.

    ``version`` counts applied pushes; a worker's *staleness* is the
    number of pushes applied since it last pulled, observed at the
    moment its own push lands.  Push/pull payloads are charged to the
    pushing/pulling worker's meter (:func:`ps_message_nbytes` each).

    As a :class:`SyncStrategy`: a round is its pushes and the mode's
    pulls (``ps`` and ``async`` differ only inside
    :meth:`SyncPlan.should_pull`), the epoch boundary a pull barrier,
    after which a correction hook runs and the server adopts its result.
    """

    want_grads = True
    #: The integer attributes a checkpoint carries beside the arrays.
    _TOTALS = ("version", "pushes", "pulls", "staleness_sum",
               "staleness_max")

    def __init__(self, model: LinkPredictionModel, optimizer,
                 plan: SyncPlan,
                 meters: Optional[Sequence[CommMeter]] = None,
                 obs=None) -> None:
        super().__init__(plan.mode)
        self.model = model
        self.optimizer = optimizer
        self.plan = plan
        self.meters = meters
        self.obs = obs
        #: Number of pushes applied to the server so far.
        self.version = 0
        #: Server version each worker last pulled.
        self.worker_version = [0] * plan.num_workers
        #: Run totals for ``TrainResult.sync_stats``.
        self.pushes = 0
        self.pulls = 0
        self.staleness_sum = 0
        self.staleness_max = 0

    @classmethod
    def for_trainer(cls, trainer, mode: str, plan: Optional[SyncPlan]):
        """The server replica starts from the same broadcast weights as
        every worker and owns the only optimizer that moves."""
        model = trainer.build_replica()
        broadcast_model(trainer.workers[0].model, [model])
        return cls(model, Adam(model.parameters(), lr=trainer.config.lr),
                   plan, meters=trainer.meters, obs=trainer.observer)

    def after_round(self, epoch, rnd, results, decision, faults) -> None:
        """Push the gradients of the workers that trained (``results``)
        and whose push was not lost (the sync mask): one
        :meth:`apply_round`, one ``sync`` span for its payloads."""
        backend = self.trainer.backend
        push_mask = [ok and results[i] is not None
                     for i, ok in enumerate(decision.sync_mask)]
        grads = backend.collect_gradients(push_mask)
        self._sync_event(lambda: self.apply_round(
            epoch, rnd, grads, push_mask, backend.load_worker_model))

    def end_epoch(self, faults) -> None:
        """The pull barrier (:meth:`epoch_barrier`), then a correction
        hook, whose result the server adopts."""
        trainer = self.trainer
        live = None if faults.all_live else faults.live
        with (self.obs.span("sync", mode=f"{self.mode}-barrier")
              if self.obs is not None else nullcontext()):
            self.epoch_barrier(live, trainer.backend.load_worker_model)
        if trainer.correction_hook is not None:
            self._correct()
            self.adopt(trainer.workers[0].model.vector.values, live=live)

    def capture(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """Adds the server's model, optimizer, versions and totals."""
        meta, arrays = super().capture()
        meta["server"] = {key: getattr(self, key) for key in self._TOTALS}
        meta["server"]["worker_version"] = list(self.worker_version)
        for name, value in self.model.state_dict().items():
            arrays[f"server.model.{name}"] = value
        for name, value in self.optimizer.state_dict().items():
            arrays[f"server.optim.{name}"] = value
        return meta, arrays

    def restore(self, meta, arrays) -> None:
        """Load :meth:`capture` output back into the server."""
        super().restore(meta, arrays)
        smeta = meta["server"]
        if smeta is None:
            return
        self.model.load_state_dict(strip_prefix(arrays, "server.model."))
        self.optimizer.load_state_dict(
            strip_prefix(arrays, "server.optim."))
        for key in self._TOTALS:
            setattr(self, key, int(smeta[key]))
        self.worker_version = [int(v) for v in smeta["worker_version"]]

    def _charge(self, worker: int) -> None:
        """Charge one PS message to ``worker``'s sync-byte ledger."""
        if self.meters is None:
            return
        meter = self.meters[worker]
        if meter is not None:
            meter.charge_sync(ps_message_nbytes(
                self.model.parameter_nbytes()))

    def _observe_staleness(self, staleness: int) -> None:
        """Record one push's staleness on the run observer."""
        self.staleness_sum += staleness
        self.staleness_max = max(self.staleness_max, staleness)
        if self.obs is not None:
            from ..obs import STALENESS_BUCKETS
            self.obs.histogram("sync.staleness",
                               STALENESS_BUCKETS).observe(float(staleness))
            self.obs.gauge("sync.server_version").set(float(self.version))

    def apply_round(self, epoch: int, rnd: int,
                    grads: Sequence[Optional[Gradient]],
                    push_mask: Sequence[bool],
                    load_model: Callable[[int, np.ndarray], None]) -> None:
        """Apply one round of pushes in the plan's seeded order.

        ``grads[i]`` is worker *i*'s :data:`Gradient` (``None`` when
        it trained nothing); ``push_mask`` additionally filters workers
        whose sync message was lost by the fault layer.  ``load_model``
        delivers pulled server weights to one worker on whatever
        backend is running (in-process load or child ``set_model``).
        """
        participants = [i for i, g in enumerate(grads)
                        if g is not None and push_mask[i]]
        if self.obs is not None:
            self.obs.counter("sync.rounds").inc(1)
            self.obs.counter("sync.participants").inc(len(participants))
        for i in self.plan.push_order(epoch, rnd, participants):
            staleness = self.version - self.worker_version[i]
            self._apply_push(grads[i])
            self.pushes += 1
            self._charge(i)
            self._observe_staleness(staleness)
            if self.obs is not None:
                self.obs.counter("sync.pushes").inc(1)
            if self.plan.should_pull(
                    epoch, rnd, i, self.version - self.worker_version[i]):
                self.pull(i, load_model)

    def _apply_push(self, grads: Gradient) -> None:
        """Load one pushed gradient and take one server step."""
        self.model.vector.set_gradient(*grads)
        self.optimizer.step()
        self.version += 1

    def pull(self, worker: int,
             load_model: Callable[[int, np.ndarray], None]) -> None:
        """Deliver (a copy of) the current server weights to one
        worker."""
        load_model(worker, self.model.vector.values.copy())
        self.worker_version[worker] = self.version
        self.pulls += 1
        self._charge(worker)
        if self.obs is not None:
            self.obs.counter("sync.pulls").inc(1)

    def epoch_barrier(self, live: Optional[Sequence[bool]],
                      load_model: Callable[[int, np.ndarray],
                                           None]) -> None:
        """Pull the server model into every live worker.

        Runs at each epoch boundary so validation (and the correction
        hook) sees one consistent consensus model — the PS analogue of
        the barrier modes' epoch-end average.  Each delivered copy is a
        charged pull.
        """
        for i in range(self.plan.num_workers):
            if live is not None and not live[i]:
                continue
            if self.worker_version[i] == self.version:
                # A worker's weights only change through pulls and the
                # server's through pushes, so an equal version means
                # equal weights: nothing to ship.
                continue
            self.pull(i, load_model)

    def adopt(self, weights: np.ndarray,
              live: Optional[Sequence[bool]] = None) -> None:
        """Replace the server weights with an external consensus.

        Used after a correction hook rewrites the (already-pulled)
        replicas at an epoch boundary: the server adopts the corrected
        weights and every live worker is marked current — the hook's
        own delivery path already updated the replicas, so no pull
        payload is charged here.
        """
        self.model.vector.load(weights)
        self.version += 1
        for i in range(self.plan.num_workers):
            if live is None or live[i]:
                self.worker_version[i] = self.version

    def stats(self) -> Dict[str, object]:
        """Run totals for ``TrainResult.sync_stats``."""
        mean = (self.staleness_sum / self.pushes) if self.pushes else 0.0
        out = super().stats()
        out.update({
            "pushes": float(self.pushes),
            "pulls": float(self.pulls),
            "server_version": float(self.version),
            "mean_staleness": float(mean),
            "max_staleness": float(self.staleness_max),
        })
        return out


#: The one ``TrainConfig(sync=)`` name → strategy class table.
STRATEGIES = {
    "grad": GradAllReduce,
    "barrier": GradAllReduce,
    "model": PeriodicAverage,
    "local_sgd": PeriodicAverage,
    "ps": ParameterServer,
    "async": ParameterServer,
}


def make_strategy(trainer) -> SyncStrategy:
    """The bound strategy ``trainer.config.sync`` names.

    A planned mode runs on the plan the config implies
    (:meth:`SyncPlan.for_config`); on a one-partition cluster it
    degrades to the barrier strategy with a warning and the run reports
    ``mode="grad"``.  The caller's config is never written to.
    """
    config = trainer.config
    num_workers = trainer.partitioned.num_parts
    mode, plan = config.sync, None
    if mode in PLANNED_SYNC_MODES and num_workers == 1:
        warnings.warn(
            f"sync={mode!r} on a single partition degrades "
            "to the barrier mode (reason: a one-worker cluster has "
            "no staleness to schedule)", RuntimeWarning, stacklevel=3)
        mode = "grad"
    elif mode in PLANNED_SYNC_MODES:
        plan = SyncPlan.for_config(config, num_workers)
    return STRATEGIES[mode].for_trainer(trainer, mode, plan).bind(trainer)
