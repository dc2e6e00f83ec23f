"""Shard routing shared by batch inference and online serving.

Both :class:`~repro.distributed.inference.DistributedScorer` and the
serving cluster (:mod:`repro.serve`) answer the same question for
every query: *which shard serves this request?*  The answer is
owner-routing — a pair goes to the shard owning its source endpoint —
with a two-step fallback when that shard is marked down: first the
destination endpoint's owner, then the first live shard.  Marking the
last live shard down raises
:class:`~repro.faults.errors.ClusterDeadError`, because a router with
no live shards cannot make progress.  Routing is where both paths admit
a query, so a node id outside ``[0, num_nodes)`` raises ``ValueError``
there, before any shard runs.

:class:`ShardRouter` holds that logic once so the batch and online
paths cannot drift.  :func:`fan_out` is the other half they share:
run one function per shard on the serial / thread / process backend and
merge the replies in shard order, with :func:`guarded_recv` as the
bounded pipe read that collects forked replies without risking a
parent hang.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from ..faults.errors import ClusterDeadError, WorkerDiedError, WorkerTimeoutError
from ..partition.partitioned import owner_vector


def resolve_backend(name: str, names: Sequence[str], what: str) -> str:
    """Validate a backend name (training's
    :func:`~repro.distributed.backends.make_backend` or a
    :func:`fan_out` caller's), degrading ``process`` to ``serial`` on
    platforms without the fork start method."""
    if name not in names:
        raise ValueError(
            f"unknown backend {name!r} for {what}; expected one of "
            f"{tuple(names)}")
    if name == "process" and "fork" not in mp.get_all_start_methods():
        warnings.warn(
            f"backend 'process' for {what}: degrading to 'serial' "
            "(reason: its children inherit the graph through the fork "
            "start method, which this platform lacks)", RuntimeWarning,
            stacklevel=3)
        return "serial"
    return name


class ShardRouter:
    """Owner routing over ``num_parts`` shards with outage fallback.

    Parameters
    ----------
    node_owner:
        Per-node owner array (node id → shard) — a layout's
        :attr:`~repro.partition.partitioned.PartitionedGraph.node_owner`
        (the *master* replica under vertex cut) or an artifact's
        assignment.  Owners outside ``[0, num_parts)`` are rejected.
    num_parts:
        Number of shards in the cluster.
    """

    def __init__(self, node_owner, num_parts: int) -> None:
        self.num_parts = int(num_parts)
        if self.num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        self.assignment = owner_vector(node_owner, self.num_parts)
        self.num_nodes = int(self.assignment.size)
        #: ``assignment`` as a list: :meth:`route` indexes it per query.
        self._owners: List[int] = self.assignment.tolist()
        self._down: set = set()

    # -- membership -----------------------------------------------------

    def mark_down(self, part: int) -> None:
        """Take shard ``part`` out of the routing table.

        Requests owned by a downed shard are rerouted — destination
        endpoint's owner first, else the first live shard — and pay
        the extra remote traffic of being served by a non-owner.
        """
        if not 0 <= part < self.num_parts:
            raise ValueError(f"no shard {part} in a "
                             f"{self.num_parts}-shard cluster")
        self._down.add(part)
        if len(self._down) == self.num_parts:
            self._down.discard(part)
            raise ClusterDeadError(
                "cannot mark the last live shard down; the router needs "
                "at least one shard to route to")

    def mark_up(self, part: int) -> None:
        """Return a previously downed shard to the routing table."""
        self._down.discard(part)

    def is_down(self, part: int) -> bool:
        """Whether shard ``part`` is currently out of the table."""
        return part in self._down

    @property
    def live_shards(self) -> List[int]:
        """Shards currently accepting queries, in worker order."""
        return [p for p in range(self.num_parts) if p not in self._down]

    # -- routing --------------------------------------------------------

    def route_pairs(self, pairs: np.ndarray) -> Tuple[np.ndarray, int]:
        """Owner routing with down-shard fallback.

        Returns ``(owners, rerouted)``: the shard each pair is served
        from, and how many pairs could not use their true owner.
        Raises ``ValueError`` on a node id outside ``[0, num_nodes)``.
        """
        if pairs.size:
            self._check_ids(int(pairs.min()), int(pairs.max()))
        owners = self.assignment[pairs[:, 0]].copy()
        if not self._down:
            return owners, 0
        down = np.isin(owners, sorted(self._down))
        rerouted = int(down.sum())
        if rerouted:
            # Fallback 1: the destination endpoint's owner.
            dst_owners = self.assignment[pairs[:, 1]]
            owners[down] = dst_owners[down]
            # Fallback 2: the first live shard.
            still_down = np.isin(owners, sorted(self._down))
            owners[still_down] = self.live_shards[0]
        return owners, rerouted

    def route(self, src: int, dst: int) -> Tuple[int, bool]:
        """:meth:`route_pairs` for one ``(src, dst)`` pair, without
        building an array while every shard is up.  Returns ``(owner,
        rerouted)``."""
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            self._check_ids(min(src, dst), max(src, dst))
        if not self._down:
            return self._owners[src], False
        owners, rerouted = self.route_pairs(
            np.array([[src, dst]], dtype=np.int64))
        return int(owners[0]), bool(rerouted)

    def _check_ids(self, low: int, high: int) -> None:
        """Raise ``ValueError`` unless node ids ``low..high`` all lie in
        ``[0, num_nodes)`` (a negative id would index from the end)."""
        if low < 0 or high >= self.num_nodes:
            raise ValueError(
                f"node id {low if low < 0 else high} is outside "
                f"[0, {self.num_nodes})")


def guarded_recv(part: int, conn, proc, timeout_s: float,
                 context: str = "score"):
    """Read a forked child's reply without risking a parent hang.

    Polls in short slices, probing child liveness between slices, and
    gives up after ``timeout_s`` — the one sanctioned direct pipe read,
    for fork-per-shard replies and the process training backend alike.
    Raises :class:`WorkerDiedError` when the child is gone or its reply
    cannot be decoded (a torn or garbled frame leaves the pipe in an
    unknown state), :class:`WorkerTimeoutError` past the deadline.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        if conn.poll(0.05):  # lint: disable=R106
            try:
                return conn.recv()  # lint: disable=R106
            except Exception as exc:
                raise WorkerDiedError(part, context) from exc
        if not proc.is_alive():
            # One final drain: the child may have answered and then
            # exited between our poll and the liveness probe.
            if conn.poll(0):  # lint: disable=R106
                continue
            raise WorkerDiedError(part, context)
        if time.monotonic() > deadline:
            raise WorkerTimeoutError(part, context, timeout_s)


def fan_out(backend: str, shards: Sequence[int],
            run: Callable[[int], object],
            fallback: Callable[[int, Exception], object],
            timeout_s: float, context: str
            ) -> Iterator[Tuple[int, object, bool]]:
    """Run ``run(shard)`` per shard; yield ``(shard, reply, piped)`` in
    shard order, each before the next reply is collected.

    ``backend`` picks where ``run`` executes: inline (``"serial"``, or
    fewer than two shards), on a thread pool (``"thread"`` — ``run``
    must touch shard-private state only), or in one forked child per
    shard (``"process"`` — copy-on-write parent state, reply shipped
    over a pipe).  ``piped`` is true when the reply crossed a pipe:
    whatever ``run`` changed besides its return value stayed in the
    child, so the reply must carry it.  A child that dies or overruns
    ``timeout_s`` hands its shard to ``fallback(shard, exc)``, run in
    the parent and yielded unpiped.  Pipes are always closed and
    children joined (terminated if hung).
    """
    if backend == "serial" or len(shards) < 2:
        for shard in shards:
            yield shard, run(shard), False
        return
    if backend == "thread":
        with ThreadPoolExecutor(len(shards), f"repro-{context}") as pool:
            futures = [pool.submit(run, shard) for shard in shards]
            for shard, future in zip(shards, futures):
                yield shard, future.result(), False
        return
    ctx = mp.get_context("fork")
    children = []
    for shard in shards:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_fan_out_child,
                           args=(run, shard, child_conn), daemon=True,
                           name=f"repro-{context}-{shard}")
        proc.start()
        child_conn.close()
        children.append((shard, parent_conn, proc))
    try:
        for shard, conn, proc in children:
            try:
                reply = guarded_recv(shard, conn, proc, timeout_s, context)
            except (WorkerDiedError, WorkerTimeoutError) as exc:
                yield shard, fallback(shard, exc), False
            else:
                yield shard, reply, True
    finally:
        for _, conn, _ in children:
            conn.close()
        for _, _, proc in children:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung child
                proc.terminate()
                proc.join(timeout=1.0)


def _fan_out_child(run: Callable[[int], object], shard: int, conn) -> None:
    """Entry point of a forked :func:`fan_out` child: ship ``run``'s
    reply, computed against the inherited copy-on-write state."""
    try:
        conn.send(run(shard))
    finally:
        conn.close()
