"""Parallel execution backends for the distributed trainer.

The trainer simulates ``p`` workers.  What one worker does with a
command is defined once, in :class:`WorkerHost`; how a round is driven
across the workers — draw, train, average, step — is defined once, in
the body of :class:`SerialBackend`, over two transport primitives
``_send(i, msg)`` / ``_recv(i, inflight)``.  The three backends differ
only in how a command reaches its host:

* :class:`SerialBackend` — runs the command inline, in worker order,
  and queues the reply.  The default; bit-identical to the pre-backend
  trainer.
* :class:`ThreadBackend` — the same, except that ``("train", ...)``
  commands are submitted to a thread pool.  numpy releases the GIL
  inside the dense and sparse matmul / segment-reduction hot paths, so
  compute-bound rounds overlap.  All mutable state (model replica,
  optimizer, RNG, CommMeter) is per-worker, so results are independent
  of thread interleaving.
* :class:`ProcessBackend` — each host is forked into its own child
  process and commands travel over a pipe.  The full graph's feature
  matrix is re-homed into ``multiprocessing.shared_memory`` before the
  fork so every child reads features through one shared mapping (no
  pickling of graphs, views or feature tensors — children inherit them
  copy-on-write).  This backend also owns everything a real process
  can do that a function call cannot: die, hang, and be respawned.

Every cross-worker reduction (gradient mean, model mean) happens on
the coordinator side of the transport, over the named-gradient / state
dicts the replies carry, in worker order — so same-seed accuracy and
the CommMeter byte ledger are bit-identical across backends.

Synchronization (gradient or model averaging) is the barrier: every
backend finishes the round's batch work before the trainer invokes the
sync collective, exactly as Algorithm 1 prescribes.

Backends are selected with ``TrainConfig(backend=...)`` or constructed
directly via :func:`make_backend`.  Parallel backends degrade to
Serial with a warning when there is only one worker or (for
ProcessBackend) when the platform cannot ``fork``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
import warnings
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..checkpoint.state import load_worker_state, worker_state_bytes
from ..faults.errors import (
    ClusterDeadError,
    WorkerDiedError,
    WorkerTimeoutError,
)
from .comm import CommRecord
from .routing import guarded_recv
from .sync import average_gradients, average_models, sync_bytes_per_worker

#: Names accepted by ``TrainConfig.backend`` / :func:`make_backend`.
BACKEND_NAMES = ("serial", "thread", "process")

#: Keep shared-memory segments (and the ndarray views into them) alive
#: for the life of the process: graphs handed out by a ProcessBackend
#: keep referencing the mapping after the pool shuts down, and closing
#: it under them would invalidate live arrays.  Segments are unlinked
#: (named resource released) at shutdown; the mapping itself is freed
#: when the process exits.
_LIVE_SHARED_SEGMENTS: List[object] = []

#: Guards ``_LIVE_SHARED_SEGMENTS``: backends may be constructed from
#: serving threads, so registration must be thread-safe.
_SHARED_SEGMENTS_LOCK = threading.Lock()


@dataclass
class RoundResult:
    """Outcome of one worker's mini-batch in one round."""

    loss: float
    mfg_edges: int


class WorkerHost:
    """The one worker executor: a worker's end of the round protocol.

    Owns what a worker holds *between* commands — its epoch iterator
    and the batch drawn for the current round — and runs each command
    against ``trainer.workers[part]`` (resolved when the command runs,
    so a host can be built before the workers are).  Commands are
    tuples; the ones that answer return a ``(tag, payload)`` reply:

    ``("epoch",)``                    reset feature cache + iterator
    ``("draw",)``                     draw next batch  → ``drawn``,
                                      has-batch flag
    ``("ffwd", n)``                   skip n batches (warm respawn)
    ``("train", ok, want_grads)``     train/discard    → ``result``,
                                      (loss, edges, comm delta,
                                      optional grad dict) or ``None``
    ``("grads", avg)``                install the averaged gradients
    ``("step",)``                     local optimizer step
    ``("get_model",)``                → ``model``, state dict
    ``("set_model", state)``          load synchronized weights
    ``("lr", factor)``                decay learning rate
    ``("snapshot", epoch, round)``    → ``snapshot``, serialized state
    ``("load_snapshot", payload)``    rehydrate from a snapshot
    ``("replay", cmds)``              re-execute silently → ``replayed``

    ``replay`` is what makes crash recovery exact: after
    ``load_snapshot`` rehydrates the worker, re-running the logged
    command stream reproduces the lost state bit for bit, because every
    command is deterministic given the worker's RNG.  It is silent:
    replies are discarded, the meter is not charged (the lost worker's
    traffic was, when it first ran) and nothing reaches the observer.

    ``spans`` selects per-batch observability spans (the serial
    engine); pooled and forked hosts train unobserved because the span
    tracer is a single simulated-clock stack.
    """

    def __init__(self, trainer, part: int, spans: bool) -> None:
        self.trainer = trainer
        self.part = part
        self.spans = spans
        self._iterator = None
        #: The batch drawn for this round, until ``train`` consumes it.
        self.pending: Optional[np.ndarray] = None

    def execute(self, msg: tuple):
        """Run one command; return ``(tag, payload)`` or ``None``."""
        cmd = msg[0]
        worker = self.trainer.workers[self.part]
        if cmd == "epoch":
            if self.trainer.config.cache_remote_features:
                worker.view.clear_feature_cache()
            self._iterator = iter(worker.loader)
            self.pending = None
        elif cmd == "draw":
            self.pending = next(self._iterator, None)
            return ("drawn", self.pending is not None)
        elif cmd == "ffwd":
            for _ in range(msg[1]):
                next(self._iterator, None)
        elif cmd == "train":
            _, ok, want_grads = msg
            batch, self.pending = self.pending, None
            if batch is None or not ok:
                return ("result", None)
            meter = self.trainer.meters[self.part]
            before = (meter.current.feature_bytes,
                      meter.current.structure_bytes,
                      meter.current.sync_bytes)
            if self.spans:
                loss, edges = worker.train_batch(batch)
            else:
                loss, edges = worker._run_batch(batch, None)
            delta = (meter.current.feature_bytes - before[0],
                     meter.current.structure_bytes - before[1],
                     meter.current.sync_bytes - before[2])
            grads = None
            if want_grads:
                grads = {name: p.grad for name, p
                         in worker.model.named_parameters()}
            return ("result", (loss, edges, delta, grads))
        elif cmd == "grads":
            averaged = msg[1]
            for name, p in worker.model.named_parameters():
                g = averaged.get(name)
                p.grad = None if g is None else g.copy()
        elif cmd == "step":
            worker.optimizer.step()
        elif cmd == "get_model":
            return ("model", worker.model.state_dict())
        elif cmd == "set_model":
            worker.model.load_state_dict(msg[1])
        elif cmd == "lr":
            worker.optimizer.lr *= msg[1]
        elif cmd == "snapshot":
            return ("snapshot", worker_state_bytes(worker, int(msg[1]),
                                                   int(msg[2])))
        elif cmd == "load_snapshot":
            load_worker_state(worker, msg[1])
        elif cmd == "replay":
            meter = self.trainer.meters[self.part]
            sites = self.obs_sites()
            observers = [site.obs for site in sites]
            charged, meter.current = meter.current, CommRecord()
            for site in sites:
                site.obs = None
            for sub in msg[1]:
                self.execute(sub)
            meter.current = charged
            for site, obs in zip(sites, observers):
                site.obs = obs
            return ("replayed", len(msg[1]))
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unknown backend command {cmd!r}")
        return None

    def obs_sites(self) -> list:
        """Every object through which this worker's commands reach the
        run observer (each carries an ``obs`` attribute)."""
        trainer = self.trainer
        worker = trainer.workers[self.part]
        sites = [worker, worker.negative_sampler, worker.view,
                 trainer.meters[self.part]]
        if trainer.remote_store is not None:
            sites.append(trainer.remote_store)
        return sites


class ExecutionBackend:
    """What every engine shares: identity flags and an idempotent close.

    The contract between :class:`DistributedTrainer` and an engine —
    :meth:`~SerialBackend.bind` once per ``train()``, then per epoch
    ``begin_epoch`` and repeated ``poll_batches`` / ``train_round`` /
    sync collectives — is the public surface of :class:`SerialBackend`,
    whose class body is the round protocol; the other backends subclass
    it and replace the transport.

    Implementations must preserve two invariants: every worker's RNG
    stream advances exactly as under :class:`SerialBackend`, and all
    floating-point reductions happen in worker order — together these
    make same-seed runs bit-identical across backends.
    """

    name = "base"
    #: True for backends that overlap worker compute; the trainer
    #: records ``pool.*`` metrics only for these.
    parallel = False
    #: True when worker state lives outside the trainer process: a
    #: planned crash is then a real kill under every recovery policy
    #: and the backend owns detection + respawn, and what a worker
    #: charges to its meter has to be folded into the coordinator's.
    child_owned_state = False

    def shutdown(self) -> None:
        """Release pools, processes and shared memory."""
        raise NotImplementedError

    def close(self) -> None:
        """Idempotent :meth:`shutdown`.

        The first call releases resources; later calls are no-ops, so
        overlapping cleanup paths (the trainer's ``finally`` block,
        fault controllers, context managers, tests) can all close
        defensively without double-releasing pools or shared memory.
        ``bind`` re-arms the guard, so a backend reused for a new run
        closes again.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        self.shutdown()


def make_backend(name: str, num_workers: int):
    """Build the named backend, degrading when it cannot help.

    ``process`` (and ``thread``) with a single worker would pay pool
    startup for zero overlap, so they degrade to :class:`SerialBackend`
    with a warning; ``process`` also degrades on platforms without the
    ``fork`` start method (children must inherit the graph without
    pickling it).
    """
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; choose from {BACKEND_NAMES}")
    if name == "serial":
        return SerialBackend()
    if num_workers <= 1:
        warnings.warn(
            f"backend={name!r} with {num_workers} worker(s) has nothing "
            "to parallelize; degrading to the serial backend",
            RuntimeWarning, stacklevel=2)
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(num_workers)
    if "fork" not in mp.get_all_start_methods():
        warnings.warn(
            "backend='process' needs the fork start method (workers "
            "inherit the graph copy-on-write); degrading to the serial "
            "backend", RuntimeWarning, stacklevel=2)
        return SerialBackend()
    return ProcessBackend(num_workers)


# ----------------------------------------------------------------------
# Serial: the round protocol, with an inline transport
# ----------------------------------------------------------------------


class SerialBackend(ExecutionBackend):
    """The round protocol, executed in-process in worker order.

    Every public method below drives the workers only through
    :meth:`_send` / :meth:`_recv`; subclasses change how a command
    travels (:meth:`_raw_send` / :meth:`_raw_recv`), never what a round
    does.  A ``None`` from :meth:`_recv` means the worker was lost
    mid-request (only a real process can be) and its contribution is
    skipped.

    Restore-replay (``recovery="restore"``) lives here too, once for
    every transport: :meth:`_send` logs each state-advancing command,
    :meth:`begin_epoch` takes a restore point every
    ``TrainConfig.checkpoint_every`` epochs, :meth:`_restore_from_log`
    rebuilds a lost worker as fresh host + restore point + silent
    replay of its log.  The transport decides only how a host is made
    fresh (:meth:`_fresh_host`): wiped in-process, re-forked otherwise.
    """

    name = "serial"
    parallel = False

    #: Commands recorded in the per-worker replay log (restore policy).
    _REPLAYABLE = frozenset((
        "epoch", "draw", "train", "grads", "step", "get_model",
        "set_model", "lr", "ffwd"))

    def __init__(self) -> None:
        self.trainer = None
        self._hosts: List[WorkerHost] = []
        self._replies: List[deque] = []
        self._has_pending: List[bool] = []
        self._exhausted: List[bool] = []
        self._round_grads: Dict[int, Dict[str, Optional[np.ndarray]]] = {}
        self._dead: set = set()
        self._logging = False
        self._epoch_index = -1
        self._cmd_log: List[List[tuple]] = []
        self._snapshots: List[Optional[bytes]] = []

    # -- lifecycle ------------------------------------------------------

    def bind(self, trainer) -> None:
        """Attach to ``trainer``: one host per worker, nobody removed."""
        self.trainer = trainer
        self._closed = False
        n = len(trainer.workers)
        self._hosts = [WorkerHost(trainer, part, spans=not self.parallel)
                       for part in range(n)]
        self._replies = [deque() for _ in range(n)]
        self._has_pending = [False] * n
        self._exhausted = [True] * n
        self._round_grads = {}
        self._dead = set()
        self._logging = trainer.config.recovery == "restore"
        self._epoch_index = -1
        self._cmd_log = [[] for _ in range(n)]
        self._snapshots = [None] * n

    def shutdown(self) -> None:
        """Nothing to release for the in-process engine."""
        self.trainer = None
        self._hosts = []

    # -- transport ------------------------------------------------------

    def _raw_send(self, i: int, msg: tuple) -> None:
        """Deliver one command to worker ``i``: run it here and now."""
        reply = self._hosts[i].execute(msg)
        if reply is not None:
            self._replies[i].append(reply)

    def _raw_recv(self, i: int, context: str):
        """Worker ``i``'s oldest unread reply."""
        return self._replies[i].popleft()

    def _fresh_host(self, i: int) -> None:
        """Lose everything worker ``i`` held.  The wipe is real, so a
        restore that failed to rebuild state exactly is caught by the
        bit-identity tests rather than masked by leftover live state."""
        wipe_worker(self.trainer.workers[i])
        self._hosts[i] = WorkerHost(self.trainer, i,
                                    spans=not self.parallel)
        self._replies[i].clear()

    def _send(self, i: int, msg: tuple) -> None:
        """Send worker ``i`` one command, logged for restore replay."""
        if self._logging and msg[0] in self._REPLAYABLE:
            self._cmd_log[i].append(msg)
        self._raw_send(i, msg)

    def _recv(self, i: int, inflight: tuple):
        """The reply to ``inflight``."""
        return self._raw_recv(i, inflight[0])

    def _active(self) -> List[int]:
        """Worker indices not removed by elastic recovery."""
        return [i for i in range(len(self._hosts)) if i not in self._dead]

    def _request(self, workers: Sequence[int], msg: tuple) -> List[tuple]:
        """Send ``msg`` to every given worker, then collect the replies
        as ``(worker, payload)`` in worker order, skipping lost ones."""
        for i in workers:
            self._send(i, msg)
        out = []
        for i in workers:
            reply = self._recv(i, msg)
            if reply is not None:
                out.append((i, reply[1]))
        return out

    # -- epoch / round --------------------------------------------------

    def begin_epoch(self) -> None:
        """Take the restore point (restore policy, on cadence), then
        every live worker resets its feature cache and iterator."""
        self._epoch_index += 1
        every = self.trainer.config.checkpoint_every
        if self._logging and self._epoch_index % every == 0:
            self._take_snapshots()
        for i in self._active():
            self._send(i, ("epoch",))
        n = len(self._hosts)
        self._exhausted = [i in self._dead for i in range(n)]
        self._has_pending = [False] * n

    def all_exhausted(self) -> bool:
        """True once every worker's epoch iterator is spent."""
        return all(self._exhausted)

    def poll_batches(self) -> List[bool]:
        """Draw the next batch for every live worker (worker order).

        Returns one flag per worker: True if it holds a pending batch
        for this round, False if it is (or just became) exhausted.
        """
        live = [i for i in self._active() if not self._exhausted[i]]
        for i, has_batch in self._request(live, ("draw",)):
            self._has_pending[i] = bool(has_batch)
            if not has_batch:
                self._exhausted[i] = True
        return [self._has_pending[i] and not self._exhausted[i]
                for i in range(len(self._hosts))]

    def train_round(self, participate: Sequence[bool]
                    ) -> List[Optional[RoundResult]]:
        """Run the round's pending batches.

        ``participate[i]`` False discards worker *i*'s pending batch
        (failure injection: the batch is consumed but never trained).
        Returns per-worker results, ``None`` where nothing ran; the
        gradients that came back are held for this round's collective.
        """
        trainer = self.trainer
        want_grads = trainer.sync_strategy.want_grads
        pending = [i for i in self._active() if self._has_pending[i]]
        inflight = {i: ("train", bool(participate[i]), want_grads)
                    for i in pending}
        started = time.perf_counter()
        for i in pending:
            self._send(i, inflight[i])
        out: List[Optional[RoundResult]] = [None] * len(participate)
        self._round_grads = {}
        tasks = 0
        for i in pending:
            reply = self._recv(i, inflight[i])
            self._has_pending[i] = False
            if reply is None or reply[1] is None:
                continue
            loss, edges, delta, grads = reply[1]
            out[i] = RoundResult(loss, edges)
            if self.child_owned_state:
                # The worker charged a meter in another process; fold
                # what it moved into the coordinator's ledger.
                trainer.meters[i].absorb(CommRecord(
                    feature_bytes=delta[0], structure_bytes=delta[1],
                    sync_bytes=delta[2]))
            if grads is not None:
                self._round_grads[i] = grads
            tasks += 1
        if self.parallel:
            _record_pool_round(trainer.observer, self.name, tasks,
                               len(self._hosts),
                               time.perf_counter() - started)
        return out

    # -- synchronization ------------------------------------------------

    def apply_gradients(self, participating: Sequence[bool],
                        topology: str, obs=None) -> None:
        """Average participants' gradients; every live replica receives
        the mean (the gradient-sync barrier)."""
        if obs is not None:
            obs.counter("sync.rounds").inc(1)
            obs.counter("sync.participants").inc(sum(participating))
        averaged = average_gradients(
            [self._round_grads.get(i) for i in range(len(participating))],
            participating)
        self._round_grads = {}
        if averaged is None:
            return
        for i in self._active():
            self._send(i, ("grads", averaged))
        self._charge_sync(topology)

    def step_all(self) -> None:
        """Optimizer step on every live worker (replicas share the
        averaged gradient)."""
        for i in self._active():
            self._send(i, ("step",))

    def step_participants(self, participating: Sequence[bool]) -> None:
        """Optimizer step on round participants only (model-averaging
        modes train locally between syncs)."""
        for i in self._active():
            if participating[i]:
                self._send(i, ("step",))

    def sync_models(self, topology: str, obs=None,
                    participating=None) -> None:
        """FedAvg model averaging (the model-sync barrier): pull live
        replicas' weights, average the participants in worker order,
        load the mean into every live replica — a non-participant
        rejoins the consensus rather than drifting."""
        states = dict(self._request(self._active(), ("get_model",)))
        averaged = average_models(
            [states.get(i) for i in range(len(self._hosts))], participating)
        if averaged is None:
            return
        if obs is not None:
            obs.counter("sync.rounds").inc(1)
            obs.counter("sync.participants").inc(
                len(self._active()) if participating is None
                else sum(participating))
        for i in self._active():
            self._send(i, ("set_model", averaged))
        self._charge_sync(topology)

    def collect_gradients(self, mask: Sequence[bool]
                          ) -> List[Optional[Dict[str, np.ndarray]]]:
        """This round's named-gradient dict per masked worker.

        ``mask[i]`` False (or a worker that trained nothing) yields
        ``None``.  Used by the parameter-server modes, which apply the
        pushes coordinator-side in
        :class:`~repro.distributed.sync.SyncPlan` order instead of
        all-reducing them; the dicts are the ones ``train`` replies
        carried, held until the next :meth:`train_round`.
        """
        return [self._round_grads.get(i) if ok else None
                for i, ok in enumerate(mask)]

    def load_worker_model(self, worker: int,
                          state: Dict[str, np.ndarray]) -> None:
        """Load ``state`` into one worker's replica (a PS pull or any
        other targeted weight delivery); removed workers are skipped."""
        if worker not in self._dead:
            self._send(worker, ("set_model", state))

    def _charge_sync(self, topology: str) -> None:
        """Charge one collective to every live worker's meter, sized to
        the live cluster."""
        trainer = self.trainer
        active = self._active()
        per_worker = sync_bytes_per_worker(
            trainer.workers[0].model.parameter_nbytes(),
            len(active), topology)
        for i in active:
            trainer.meters[i].charge_sync(per_worker)

    # -- coordinator-side replicas --------------------------------------

    def _pull_replicas(self, workers: Sequence[int]) -> None:
        """Make ``trainer.workers[i].model`` — the coordinator's copy
        of the replica — current for each given live worker."""
        for i, state in self._request(workers, ("get_model",)):
            self.trainer.workers[i].model.load_state_dict(state)

    def refresh_eval_model(self) -> None:
        """Make ``trainer.workers[0].model`` — the replica the evaluator
        reads — hold the first live worker's current weights."""
        source = None
        while source is None or source in self._dead:
            active = self._active()
            if not active:
                raise ClusterDeadError("no live worker to evaluate")
            source = active[0]
            self._pull_replicas([source])
        workers = self.trainer.workers
        if source != 0:
            workers[0].model.load_state_dict(
                workers[source].model.state_dict())

    def run_correction(self, hook) -> None:
        """Run a server-side correction hook over all model replicas,
        then deliver what it wrote to every live worker as a logged
        ``set_model`` — the command log must be the complete record of
        what a worker was told, or replay would skip the correction.

        A removed worker's coordinator-side replica is first made a
        copy of the first live one, so the hook — which corrects
        ``models[0]`` and broadcasts it — never resurrects the weights
        a worker held when it left."""
        models = [w.model for w in self.trainer.workers]
        self._pull_replicas(self._active())
        first_live = models[self._active()[0]]
        for i in self._dead:
            models[i].load_state_dict(first_live.state_dict())
        hook(models)
        for i in self._active():
            self._send(i, ("set_model", models[i].state_dict()))

    def scale_lr(self, factor: float) -> None:
        """Multiply every live worker optimizer's learning rate."""
        for i in self._active():
            self._send(i, ("lr", float(factor)))

    # -- fault-tolerance hooks (repro.faults) ---------------------------

    def _count(self, name: str, value: float = 1) -> None:
        """Mirror a backend fault event onto the controller counters."""
        self.trainer.fault_controller.count(name, value)

    def deactivate(self, worker: int) -> None:
        """Permanently remove a worker from the pool (elastic
        recovery): it draws no further batches and is skipped by every
        broadcast."""
        self._dead.add(worker)
        self._exhausted[worker] = True
        self._has_pending[worker] = False
        self._round_grads.pop(worker, None)

    def inject_crash(self, worker: int) -> None:
        """Make a planned crash real.  In-process there is no child to
        kill: under ``restore`` the worker is wiped and rebuilt from its
        log on the spot; under the other policies the fault
        controller's masks are the whole crash."""
        if self._logging:
            self._count("child_deaths")
            self._count("respawns")
            self._restore_from_log(worker, None)

    def _take_snapshots(self) -> None:
        """The restore point: keep every live worker's serialized state
        and restart its replay log."""
        for i, payload in self._request(
                self._active(), ("snapshot", self._epoch_index, 0)):
            self._snapshots[i] = payload
            self._cmd_log[i] = []
            self._count("checkpoint_bytes", len(payload))
        self._count("checkpoints")

    def _restore_from_log(self, i: int, inflight: Optional[tuple]) -> None:
        """Rebuild lost worker ``i``: a fresh host, rehydrated from the
        restore point, silently replays the commands logged since —
        minus ``inflight`` when that very message is the log's last
        entry, which the caller re-issues for real."""
        self._fresh_host(i)
        replay = self._cmd_log[i]
        if replay and replay[-1] is inflight:
            replay = replay[:-1]
        self._raw_send(i, ("load_snapshot", self._snapshots[i]))
        self._raw_send(i, ("replay", replay))
        tag, replayed = self._raw_recv(i, "replay")
        assert tag == "replayed"
        self._count("restores")
        self._count("replayed_commands", replayed)

    def snapshot_workers(self, epoch: int,
                         rnd: int) -> List[Optional[bytes]]:
        """Serialize every live worker's state (model + optimizer +
        RNG) where it lives, stamped ``(epoch, rnd)``, for the durable
        session checkpoint (:mod:`repro.checkpoint`).  ``None`` for
        workers removed by elastic recovery."""
        payloads = dict(self._request(
            self._active(), ("snapshot", int(epoch), int(rnd))))
        return [payloads.get(i) for i in range(len(self._hosts))]


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------


class ThreadBackend(SerialBackend):
    """Thread-pool transport: one round's batches run concurrently.

    Only ``("train", ...)`` commands go to the pool; everything else —
    batch *drawing* in particular — stays sequential in the caller
    thread, preserving per-worker RNG streams exactly.  Each worker's
    state is touched by exactly one thread per round and replies are
    read in worker order, so outputs are bit-identical to Serial.

    Per-batch observability spans are disabled under this backend (the
    span tracer is a single simulated-clock stack); the trainer records
    ``pool.*`` wall-clock metrics instead.
    """

    name = "thread"
    parallel = True

    def __init__(self, num_workers: int) -> None:
        super().__init__()
        self.num_workers = int(num_workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def bind(self, trainer) -> None:
        """Attach to ``trainer`` and spin up the thread pool."""
        super().bind(trainer)
        self._pool = ThreadPoolExecutor(
            max_workers=self.num_workers,
            thread_name_prefix="repro-worker")

    def shutdown(self) -> None:
        """Stop the thread pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().shutdown()

    def _raw_send(self, i: int, msg: tuple) -> None:
        """Submit a training command to the pool; run the rest inline."""
        if msg[0] == "train":
            self._replies[i].append(
                self._pool.submit(self._hosts[i].execute, msg))
        else:
            super()._raw_send(i, msg)

    def _raw_recv(self, i: int, context: str):
        """Join the pooled command, if that is what was in flight."""
        reply = super()._raw_recv(i, context)
        return reply.result() if isinstance(reply, Future) else reply


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


class ProcessBackend(SerialBackend):
    """Forked-process transport with shared-memory feature storage.

    At :meth:`bind` the full graph's feature matrix is copied once into
    a ``multiprocessing.shared_memory`` segment and the graph is
    re-pointed at the shared view; the subsequent ``fork`` gives every
    child the same mapping, so feature reads never cross a pickle
    boundary and the matrix exists once in physical memory.  Each child
    then runs its :class:`WorkerHost` — batch loader, negative/neighbor
    samplers, model replica, optimizer and meter — and answers the
    host's commands over a pipe until ``("stop",)``.

    **Fault tolerance.**  Every pipe read runs through a guarded
    receive: it polls with a short period, probes the child's liveness,
    and gives up after ``TrainConfig.fault_timeout_s`` wall seconds —
    a dead child raises :class:`WorkerDiedError`, a wedged one
    :class:`WorkerTimeoutError`; bare ``conn.recv()`` never blocks the
    parent forever.  Detection triggers the configured recovery:

    * ``drop``    — respawn a warm child; the in-flight contribution is
      lost.
    * ``retry``   — respawn warm (survivor weights, loader
      fast-forwarded) and requeue the in-flight batch on the new child.
    * ``restore`` — re-fork, then the shared
      :meth:`~SerialBackend._restore_from_log`: the rebuilt child is
      bit-identical to the lost one.
    * ``elastic`` — the worker is removed; collectives reweight over
      the survivors.
    """

    name = "process"
    parallel = True
    child_owned_state = True

    def __init__(self, num_workers: int) -> None:
        super().__init__()
        self.num_workers = int(num_workers)
        self._procs: List[mp.Process] = []
        self._conns: List = []
        self._inbox: List[list] = []
        self._shm = None
        self._mp_ctx = None
        self._timeout_s = 30.0
        self._in_epoch = False
        self._draws: List[int] = []
        self._recoveries: List[int] = []

    # -- lifecycle ------------------------------------------------------

    def bind(self, trainer) -> None:
        """Move features to shared memory, then fork each host into its
        own child (children inherit the trainer copy-on-write)."""
        super().bind(trainer)
        n = self.num_workers = len(trainer.workers)
        self._timeout_s = float(trainer.config.fault_timeout_s)
        self._shm = _share_features(trainer.partitioned.full)
        self._mp_ctx = mp.get_context("fork")
        self._procs = [None] * n
        self._conns = [None] * n
        self._inbox = [[] for _ in range(n)]
        for part in range(n):
            self._fresh_host(part)
        self._in_epoch = False
        self._draws = [0] * n
        self._recoveries = [0] * n

    def _fresh_host(self, part: int) -> None:
        """Fork (or re-fork) the child process running host ``part``.

        The parent never executes a command on its own copy of the
        host, so a re-fork starts from the same pristine host."""
        parent_conn, child_conn = self._mp_ctx.Pipe(duplex=True)
        proc = self._mp_ctx.Process(
            target=_child_main, args=(self._hosts[part], child_conn),
            daemon=True, name=f"repro-worker-{part}")
        proc.start()
        child_conn.close()
        self._procs[part] = proc
        self._conns[part] = parent_conn
        # Replies buffered from the previous incarnation's pipe are
        # stale once the child is re-forked.
        self._inbox[part] = []

    def shutdown(self) -> None:
        """Stop children and release the shared-memory segment name."""
        for i, conn in enumerate(self._conns):
            if conn is None or i in self._dead:
                continue
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self._procs, self._conns = [], []
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            self._shm = None
        super().shutdown()

    # -- guarded pipe I/O -----------------------------------------------

    def _raw_send(self, i: int, msg: tuple) -> None:
        """Send one command; a broken pipe means the child died."""
        try:
            self._conns[i].send(msg)
        except (BrokenPipeError, OSError) as err:
            raise WorkerDiedError(i, f"send {msg[0]!r}") from err

    def _raw_recv(self, i: int, context: str):
        """Receive with liveness probing and a wall-clock deadline.

        Never blocks indefinitely: polls the pipe with a short period,
        checks the child process between polls, and raises
        :class:`WorkerDiedError` on death / :class:`WorkerTimeoutError`
        once ``fault_timeout_s`` elapses.  This (and ``_raw_send``) is
        the only sanctioned direct pipe access in the backend.
        """
        if self._inbox[i]:
            return self._inbox[i].pop(0)
        return guarded_recv(i, self._conns[i], self._procs[i],
                            self._timeout_s, context)

    def _recv_tagged(self, i: int, want: str, context: str):
        """Receive the next reply tagged ``want``, buffering any
        pipelined replies that belong to an earlier request (recovery
        can interleave with in-flight round traffic)."""
        inbox = self._inbox[i]
        for k, reply in enumerate(inbox):
            if reply[0] == want:
                return inbox.pop(k)
        while True:
            reply = guarded_recv(i, self._conns[i], self._procs[i],
                                 self._timeout_s, context)
            if reply[0] == want:
                return reply
            inbox.append(reply)

    def _send(self, i: int, msg: tuple) -> None:
        """Log and deliver a command over the pipe, recovering the
        worker if the send itself reveals a death."""
        if msg[0] == "draw":
            # Counted before sending so recovery's fast-forward
            # arithmetic sees the in-flight draw on both the send and
            # the receive failure paths.
            self._draws[i] += 1
        try:
            super()._send(i, msg)
        except WorkerDiedError:
            self._recover(i, msg, expect_reply=False)

    def _recv(self, i: int, inflight: tuple):
        """Receive ``inflight``'s reply, running death/timeout recovery
        when the child fails mid-request.  Returns ``None`` when the
        worker was removed (elastic) or its contribution dropped."""
        if i in self._dead:
            return None
        try:
            return self._raw_recv(i, inflight[0])
        except (WorkerDiedError, WorkerTimeoutError):
            return self._recover(i, inflight, expect_reply=True)

    # -- death recovery --------------------------------------------------

    def _recover(self, i: int, inflight: tuple, expect_reply: bool):
        """A child died (or timed out) with ``inflight`` outstanding.

        Applies ``TrainConfig.recovery``: remove the worker (elastic),
        or respawn it — warm from a survivor (drop/retry) or restored
        from its last checkpoint plus a silent replay of the command
        log (restore) — then re-issues ``inflight`` and returns its
        reply (``None`` for one-way commands or lost work).
        """
        trainer = self.trainer
        config = trainer.config
        policy = config.recovery
        controller = trainer.fault_controller
        self._count("child_deaths")
        self._reap(i)
        live_others = [j for j in self._active() if j != i]
        if policy == "elastic":
            if live_others:
                had_pending = self._has_pending[i]
                self.deactivate(i)
                controller.mark_dead(i, reason=inflight[0])
                if had_pending:
                    controller.record_dropped()
                return None
            # Never lose the last worker: fall through to a warm
            # respawn so the run can finish.
            self._count("spared_last_worker")
        self._recoveries[i] += 1
        if (policy == "retry"
                and self._recoveries[i] > max(1, config.max_retries)):
            if live_others:
                self.deactivate(i)
                controller.mark_dead(i, reason="retry budget")
                return None
            raise ClusterDeadError(
                f"worker {i} exceeded its retry budget and no live "
                "worker remains")
        self._count("respawns")
        if policy == "restore" and self._snapshots[i] is not None:
            self._restore_from_log(i, inflight)
        else:
            self._respawn_warm(i, inflight, live_others,
                               requeue=(policy not in ("drop",)))
        if not expect_reply:
            self._raw_send(i, inflight)
            return None
        if inflight[0] == "train":
            if policy == "drop" or not self._has_pending[i]:
                # The contribution is lost; the worker lives on.
                controller.record_dropped()
                return ("result", None)
        self._raw_send(i, inflight)
        return self._raw_recv(i, inflight[0])

    def _reap(self, i: int) -> None:
        """Make sure a failed child is actually dead and reaped."""
        proc = self._procs[i]
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        elif proc is not None:
            proc.join(timeout=1.0)
        conn = self._conns[i]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def _respawn_warm(self, i: int, inflight: tuple,
                      live_others: List[int], requeue: bool) -> None:
        """Fork a fresh child and warm it up: copy a survivor's model,
        re-enter the epoch and fast-forward the loader past the batches
        the dead child already consumed.  No bit-identity claim — the
        respawned worker continues on a fresh RNG stream."""
        self._fresh_host(i)
        if live_others:
            src = live_others[0]
            self._raw_send(src, ("get_model",))
            tag, state = self._recv_tagged(src, "model",
                                           "get_model (warm respawn)")
            self._raw_send(i, ("set_model", state))
        if self._in_epoch and not self._exhausted[i]:
            self._raw_send(i, ("epoch",))
            consumed = self._draws[i]
            if inflight[0] == "draw":
                # The in-flight draw is re-sent by the caller; it must
                # not be skipped here.
                consumed = max(consumed - 1, 0)
            if requeue and self._has_pending[i]:
                self._raw_send(i, ("ffwd", max(consumed - 1, 0)))
                self._raw_send(i, ("draw",))
                tag, has = self._raw_recv(i, "draw (requeue)")
                assert tag == "drawn"
                self._has_pending[i] = bool(has)
                if not has:
                    self._exhausted[i] = True
                else:
                    self._count("requeued_batches")
            else:
                self._raw_send(i, ("ffwd", consumed))
                self._has_pending[i] = False

    # -- fault-tolerance hooks ------------------------------------------

    def deactivate(self, worker: int) -> None:
        """Remove a worker for good: stop polling it, end its child."""
        if worker in self._dead:
            return
        super().deactivate(worker)
        conn = self._conns[worker]
        if conn is not None:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        proc = self._procs[worker]
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)

    def inject_crash(self, worker: int) -> None:
        """SIGKILL the child — a real, unannounced death; detection
        and recovery run through the guarded receive path."""
        proc = self._procs[worker]
        if proc is None or not proc.is_alive():
            return
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=2.0)

    # -- epoch ----------------------------------------------------------

    def begin_epoch(self) -> None:
        """Start the epoch; recovery's fast-forward arithmetic counts
        draws from here."""
        super().begin_epoch()
        self._draws = [0] * self.num_workers
        self._in_epoch = True


def wipe_worker(worker) -> None:
    """What a crash takes from an in-process worker: parameters
    zeroed, optimizer moments blanked, RNG scrambled."""
    for p in worker.model.parameters():
        p.data = np.zeros_like(p.data)
        p.grad = None
    blank = {name: np.zeros_like(value) for name, value
             in worker.optimizer.state_dict().items()}
    blank["lr"] = np.asarray(worker.optimizer.lr)
    worker.optimizer.load_state_dict(blank)
    worker.rng.bit_generator.state = (
        np.random.default_rng(0xDEAD).bit_generator.state)


def _share_features(graph):
    """Re-home ``graph.features`` into a shared-memory segment.

    Returns the segment (or ``None`` when the graph has no features).
    The view replaces ``graph.features`` permanently — see
    ``_LIVE_SHARED_SEGMENTS`` for why the mapping is never closed.
    """
    feats = getattr(graph, "features", None)
    if feats is None or feats.nbytes == 0:
        return None
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(create=True, size=feats.nbytes)
    view = np.ndarray(feats.shape, dtype=feats.dtype, buffer=shm.buf)
    view[:] = feats
    view.flags.writeable = feats.flags.writeable
    graph.features = view
    with _SHARED_SEGMENTS_LOCK:
        _LIVE_SHARED_SEGMENTS.append((shm, view))
    return shm


def _child_main(host: WorkerHost, conn) -> None:
    """Entry point of a forked worker process.

    Runs ``host`` against the (inherited, copy-on-write) trainer until
    ``stop``.  Observability is detached child-side — spans/metrics
    belong to the parent; the child reports raw deltas instead.
    """
    for site in host.obs_sites():
        site.obs = None
    try:
        while True:
            # Child side: blocking on the parent is safe — parent death
            # closes the pipe and the EOFError below ends the loop.
            msg = conn.recv()  # lint: disable=R106
            if msg[0] == "stop":
                break
            reply = host.execute(msg)
            if reply is not None:
                conn.send(reply)
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


def _record_pool_round(observer, backend_name: str, tasks: int,
                       workers: int, wall_s: float) -> None:
    """Record one parallel round's pool metrics on the run observer.

    Real wall-clock lands in ``pool.*`` counters/gauges and a
    zero-duration ``pool.round`` span attribute — kept separate from
    the simulated timeline so modeled durations stay deterministic.
    """
    if observer is None or tasks == 0:
        return
    with observer.span("pool.round", backend=backend_name,
                       tasks=tasks) as span:
        span.attrs["wall_s"] = wall_s
    observer.counter("pool.rounds").inc(1)
    observer.counter("pool.tasks").inc(tasks)
    observer.counter("pool.wall_busy_s").inc(wall_s)
    observer.gauge("pool.workers").set(workers)
