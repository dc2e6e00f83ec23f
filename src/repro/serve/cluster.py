"""The serving cluster: per-shard replicas answering link queries.

A :class:`ServingCluster` loads a :class:`~repro.serve.artifact.
ServableArtifact` and serves pairwise-score and top-k requests through
dynamic micro-batching.  Execution is split into two phases so results
are bit-identical across execution backends:

1. **Plan (deterministic, parent-side).**  The
   :class:`~repro.serve.scheduler.MicroBatchScheduler` simulates the
   whole run on the :class:`~repro.distributed.timeline.HardwareModel`
   clock — admission, routing (including fault-plan outages via the
   shared :class:`~repro.distributed.routing.ShardRouter`), bounded
   queues, flush triggers, LRU cache bookkeeping, byte charges and
   service times.  No model numerics happen here.
2. **Execute (embarrassingly parallel).**  Each shard's frozen flush
   plan — which requests, which exclusion lists — is evaluated
   against the read-only embedding table and decoder.  Per-request
   numbers depend only on the artifact and the plan, never on worker
   interleaving, so the serial, thread and process backends produce
   byte-identical :class:`~repro.serve.requests.ServeReport` digests.

Serve handlers never touch the raw graph: embeddings come from the
artifact's table, and top-k neighbor exclusion goes through the
master's :class:`~repro.distributed.store.RemoteGraphStore` with every
fetch charged to the communication meter.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..distributed.comm import FEATURE_ITEMSIZE, CommMeter
from ..distributed.routing import ShardRouter, fan_out, resolve_backend
from ..distributed.timeline import HardwareModel
from ..faults.plan import FaultPlan
from .artifact import ServableArtifact
from .cache import LRUCache
from .requests import RequestOutcome, ScoreRequest, ServeReport
from .scheduler import Flush, MicroBatchScheduler, ServeFaultSchedule

#: Execution backends a cluster can serve on.
SERVE_BACKENDS = ("serial", "thread", "process")


def top_k(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` best rows: descending score, ties broken
    by ascending id — a total order, so top-k is deterministic.

    Equal to ``np.lexsort((ids, -scores))[:k]``: ``np.partition``
    finds the k-th score, and only the rows scoring at or above it are
    sorted.  NaN scores take the full sort.
    """
    neg = -scores
    if k <= 0 or k >= neg.size or np.isnan(neg).any():
        return np.lexsort((ids, neg))[:k]
    keep = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
    return keep[np.lexsort((ids[keep], neg[keep]))[:k]]


def layout_mismatch(artifact: ServableArtifact,
                    live: ServableArtifact) -> Optional[str]:
    """Why ``artifact`` cannot hot-swap in for ``live``, or ``None``.

    A hot swap exchanges tables, never routing: shard count, node
    universe, embedding width and ownership must match, and a
    rebalanced layout needs a new cluster (a cold swap)."""
    if artifact.num_shards != live.num_shards:
        return (f"artifact has {artifact.num_shards} shard(s), cluster "
                f"serves {live.num_shards}: rebuild the cluster instead "
                "of hot-swapping")
    if artifact.num_nodes != live.num_nodes:
        return ("artifact covers a different node universe "
                f"({artifact.num_nodes} vs {live.num_nodes})")
    if artifact.embed_dim != live.embed_dim:
        return (f"artifact embed_dim {artifact.embed_dim} != cluster's "
                f"{live.embed_dim}")
    if not np.array_equal(artifact.assignment, live.assignment):
        return ("artifact ownership assignment differs from the "
                "cluster's routing; a rebalance requires a cold swap "
                "(new ServingCluster)")
    return None


class ServingCluster:
    """Owner-routed, micro-batched serving over a frozen artifact.

    Parameters
    ----------
    artifact:
        The exported servable (embedding table + decoder); it stays
        ``self.artifact`` until another version is :meth:`activate`-d.
    backend:
        ``"serial"``, ``"thread"`` or ``"process"`` — how phase-2
        numerics execute.  All three produce identical reports.
    store:
        Optional master graph store used only for top-k neighbor
        exclusion (known neighbors are not re-recommended); fetches
        are charged to the serve communication meter.  Without a
        store, top-k excludes only the query node itself.
    max_batch / max_delay_s:
        Micro-batch flush triggers: flush when ``max_batch`` requests
        wait, or when the oldest has waited ``max_delay_s``.
    max_queue:
        Bounded admission queue per shard; arrivals beyond it are
        load-shed explicitly.
    embed_cache / neighbor_cache:
        Per-shard LRU capacities (entries) for remote embedding rows
        and neighbor lists.  0 disables the cache.
    plan:
        Optional :class:`~repro.faults.FaultPlan` of shard outages and
        stragglers (see :class:`~repro.serve.scheduler.
        ServeFaultSchedule` for the serving-time semantics).
    observer:
        Optional :class:`~repro.obs.observer.RunObserver`; serve spans,
        latency histograms and queue-depth gauges are emitted per run.
    """

    def __init__(
        self,
        artifact: ServableArtifact,
        *,
        backend: str = "serial",
        store=None,
        max_batch: int = 8,
        max_delay_s: float = 2e-3,
        max_queue: int = 64,
        embed_cache: int = 256,
        neighbor_cache: int = 256,
        hardware: Optional[HardwareModel] = None,
        plan: Optional[FaultPlan] = None,
        observer=None,
        timeout_s: float = 30.0,
    ) -> None:
        self.artifact = artifact
        self.backend = resolve_backend(backend, SERVE_BACKENDS, "serve")
        self.store = store
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self.max_queue = int(max_queue)
        self.embed_cache_capacity = int(embed_cache)
        self.neighbor_cache_capacity = int(neighbor_cache)
        self.hardware = hardware or HardwareModel()
        self.plan = plan
        self.observer = observer
        self.timeout_s = float(timeout_s)
        self.num_shards = artifact.num_shards
        shard_nodes = artifact.shard_nodes
        self._owned = [set(nodes.tolist()) for nodes in shard_nodes]
        #: Sorted ids each shard does not own: a top-k candidate sweep.
        self._remote = [
            np.setdiff1d(np.arange(artifact.num_nodes), nodes)
            for nodes in shard_nodes]
        #: Registered servables by ``model_version``; requests execute
        #: against exactly one of their tables, chosen by the version
        #: pinned at admission time (see :meth:`serve`'s ``swaps``).
        self._versions: Dict[str, ServableArtifact] = {}
        self.register_version(artifact)
        self._pinned: Dict[int, str] = {}
        #: Neighbor lists fetched so far (simulation-side value store;
        #: the LRU caches model what a replica would retain/charge).
        self._neighbor_lists: Dict[int, np.ndarray] = {}
        self._closed = False

    # -- versioned artifacts (hot swap) ----------------------------------

    def register_version(self, artifact: ServableArtifact) -> str:
        """Add a servable the cluster may hot-swap to; returns its
        ``model_version``.  ``ValueError`` unless it is
        layout-compatible with the serving topology
        (:func:`layout_mismatch`)."""
        mismatch = layout_mismatch(artifact, self.artifact)
        if mismatch is not None:
            raise ValueError(mismatch)
        # Built here, in the parent, so forked replicas share it.
        artifact.build_predictor()
        self._versions[artifact.model_version] = artifact
        return artifact.model_version

    @property
    def active_version(self) -> str:
        """The ``model_version`` requests score against by default."""
        return self.artifact.model_version

    def activate(self, version: str) -> None:
        """Make ``version`` the default for subsequently admitted
        requests (it must have been :meth:`register_version`-ed)."""
        if version not in self._versions:
            raise ValueError(
                f"unknown model_version {version[:12]!r}…; "
                "register_version() it first")
        self.artifact = self._versions[version]

    def retire(self, version: str) -> None:
        """Drop a registered version (its table and decoder).

        The active version cannot be retired, and an unknown one is an
        error; both raise ``ValueError``.  A retired version can no
        longer be a ``serve`` swap target or :meth:`activate`-d.
        """
        if version == self.active_version:
            raise ValueError(
                f"model_version {version[:12]!r}… is active; activate "
                "another version before retiring it")
        if version not in self._versions:
            raise ValueError(f"unknown model_version {version[:12]!r}…")
        del self._versions[version]

    def pinned_version(self, index: int) -> str:
        """The model version request ``index`` of the last run scored
        against (admission-time pinning)."""
        return self._pinned.get(index, self.active_version)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the cluster (idempotent; ``serve`` refuses after)."""
        self._closed = True

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- serving ---------------------------------------------------------

    def serve(self, workload, swaps=None) -> ServeReport:
        """Serve one workload to completion; returns the run report.

        Each call is an independent run: fresh router state, fresh
        caches, fresh meter, fresh neighbor-list store — so repeated
        calls (and calls on different backends) are directly
        comparable.

        ``swaps`` hot-swaps model versions mid-workload: a sequence of
        ``(seq, model_version)`` pairs meaning "requests admitted at
        sequence ``seq`` or later score against ``model_version``".
        Pinning is decided at *admission*: a request admitted before a
        swap point scores entirely against the pre-swap version even
        when its micro-batch flushes after the swap, and a flush whose
        batch straddles a swap is split into version-homogeneous
        groups — no batch ever mixes embedding tables.
        """
        if self._closed:
            raise RuntimeError("ServingCluster is closed")
        swap_points: List[Tuple[int, str]] = []
        for seq, version in (swaps or ()):
            if version not in self._versions:
                raise ValueError(
                    f"swap target {str(version)[:12]!r}… is not a "
                    "registered model_version")
            swap_points.append((int(seq), str(version)))
        swap_points.sort(key=lambda p: p[0])
        # Per-run mutable state (phase 1).
        self._neighbor_lists = {}
        self._meter = CommMeter()
        self._meter.obs = self.observer
        self._embed_caches = [LRUCache(self.embed_cache_capacity)
                              for _ in range(self.num_shards)]
        self._nbr_caches = [LRUCache(self.neighbor_cache_capacity)
                            for _ in range(self.num_shards)]
        router = ShardRouter(self.artifact.assignment, self.num_shards)
        schedule = ServeFaultSchedule(self.plan, self.num_shards)
        scheduler = MicroBatchScheduler(
            router, schedule,
            max_batch=self.max_batch, max_delay_s=self.max_delay_s,
            max_queue=self.max_queue, flush_cost=self._flush_cost)
        scheduler.run(workload)
        # Admission-time version pinning: outcome ``index`` is the
        # admission sequence, so each request's version is fixed here,
        # before any numerics run on any backend.
        self._pinned = {}
        if swap_points:
            for outcome in scheduler.outcomes:
                version = self.active_version
                for seq, swapped in swap_points:
                    if outcome.index >= seq:
                        version = swapped
                self._pinned[outcome.index] = version
        # Phase 2: numeric execution of the frozen flush plan.
        self._execute(scheduler.outcomes, scheduler.flushes)
        # Phase 3: counters, observability, report.
        counters = dict(scheduler.counters)
        counters["embed_cache_hits"] = sum(
            c.hits for c in self._embed_caches)
        counters["embed_cache_misses"] = sum(
            c.misses for c in self._embed_caches)
        counters["neighbor_cache_hits"] = sum(
            c.hits for c in self._nbr_caches)
        counters["neighbor_cache_misses"] = sum(
            c.misses for c in self._nbr_caches)
        report = ServeReport(outcomes=scheduler.outcomes,
                             counters=counters,
                             comm=self._meter.total(),
                             backend=self.backend)
        self._observe(report, scheduler.flushes)
        return report

    # -- phase 1: deterministic cost model -------------------------------

    def _flush_cost(self, shard: int, batch: List[RequestOutcome]
                    ) -> Tuple[float, Dict[str, object]]:
        """Simulated service time + execution metadata for one flush.

        Charges the communication meter for every remote embedding row
        and neighbor list the shard's caches miss, then prices the
        flush: one dispatch round-trip, the missed bytes over the
        link, and decoder compute proportional to scored rows.
        """
        embed_dim = self.artifact.embed_dim
        owned = self._owned[shard]
        remote = self._remote[shard]
        cache = self._embed_caches[shard]
        # Remote pair endpoints wait in ``run`` and are admitted in
        # order around each top-k sweep, so the cache sees exactly the
        # per-key lookup sequence of the batch.
        run: List[int] = []
        missed = 0
        exclusions: Dict[int, np.ndarray] = {}
        work_rows = 0
        store_requests = 0
        for outcome in batch:
            request = outcome.request
            if isinstance(request, ScoreRequest):
                run.extend(n for n in (request.u, request.v)
                           if n not in owned)
                work_rows += 1
            else:
                node = request.node
                if node not in owned:
                    run.append(node)
                # Top-k scores the query node against every candidate;
                # candidate rows the replica does not own flow through
                # the embedding cache like any other remote row.
                missed += len(cache.admit(run)) + cache.admit_unique(
                    remote[remote != node]).size
                run = []
                work_rows += self.artifact.num_nodes - 1
                if self.store is not None:
                    if self._nbr_caches[shard].admit([node]):
                        nbrs, _, _ = self.store.neighbors_batch(
                            np.array([node], dtype=np.int64), self._meter)
                        self._neighbor_lists[node] = np.unique(nbrs)
                        store_requests += 1
                    exclusions[outcome.index] = self._neighbor_lists.get(
                        node, np.empty(0, dtype=np.int64))
        missed += len(cache.admit(run))
        if missed:
            self._meter.charge_features(missed, embed_dim)
        transfer_bytes = missed * embed_dim * FEATURE_ITEMSIZE
        service_s = (
            self.hardware.request_latency_s * (1 + store_requests)
            + transfer_bytes / self.hardware.bytes_per_second
            + work_rows * embed_dim / self.hardware.edges_per_second)
        meta = {"exclusions": exclusions, "embed_missed": missed,
                "work_rows": work_rows,
                # Frozen request objects ride along so phase-2 workers
                # (possibly forked processes) need no outcome list.
                "requests": {o.index: o.request for o in batch}}
        return service_s, meta

    # -- phase 2: numeric execution --------------------------------------

    def _execute(self, outcomes: List[RequestOutcome],
                 flushes: List[Flush]) -> None:
        """Evaluate every flush's numerics and write results back."""
        by_shard: Dict[int, List[Flush]] = {}
        for flush in flushes:
            by_shard.setdefault(flush.shard, []).append(flush)

        def run(shard: int) -> List[tuple]:
            return self._execute_shard(by_shard[shard])

        def fallback(shard: int, exc: Exception) -> List[tuple]:
            # The plan is frozen, so the parent computes the same bytes.
            warnings.warn(
                f"serve replica {shard} failed ({exc}); recomputing its "
                "flushes in the parent", RuntimeWarning, stacklevel=2)
            return run(shard)

        for _, reply, _ in fan_out(self.backend, sorted(by_shard), run,
                                   fallback, self.timeout_s, "serve"):
            for index, score, topk_nodes, topk_scores in reply:
                outcome = outcomes[index]
                outcome.score = score
                outcome.topk_nodes = topk_nodes
                outcome.topk_scores = topk_scores

    def _execute_shard(self, flushes: List[Flush]) -> List[tuple]:
        """Run one shard's flush plan against the read-only tables.

        Returns ``(index, score, topk_nodes, topk_scores)`` rows; pure
        function of the registered artifacts and the plan, so any
        backend (or a parent-side fallback) computes identical bytes.

        Each request uses exactly the table+decoder of the version
        pinned at its admission, so a flush straddling a hot swap never
        mixes embedding tables.  A top-k request is one
        ``predictor.sweep`` over its candidates and a :func:`top_k`
        selection; all pair requests of one version are one
        ``predictor.decode``.  Both are the forward-only decode in the
        table's dtype, whose every score is a pure function of
        ``(table, decoder, u, v)`` (see
        :class:`~repro.nn.models.EdgePredictor`): a pair scores the
        same alone or with whatever shares its flush or version group,
        and a top-k score equals the pair score of the same
        ``(node, candidate)`` bit for bit.  Neither records a tape.
        """
        results: List[tuple] = []
        pairs: Dict[str, List[Tuple[int, int, int]]] = {}
        for flush in flushes:
            exclusions = flush.meta.get("exclusions", {})
            for index in flush.seqs:
                request = flush.meta["requests"][index]
                version = self._pinned.get(index, self.active_version)
                if isinstance(request, ScoreRequest):
                    pairs.setdefault(version, []).append(
                        (index, request.u, request.v))
                    continue
                artifact = self._versions[version]
                table = artifact.embedding_table()
                num_nodes = table.shape[0]
                excl = np.asarray(
                    exclusions.get(index, np.empty(0, dtype=np.int64)),
                    dtype=np.int64)
                mask = np.ones(num_nodes, dtype=bool)
                mask[request.node] = False
                mask[excl[excl < num_nodes]] = False
                candidates = np.flatnonzero(mask).astype(np.int64)
                scores = artifact.build_predictor().sweep(
                    table[request.node], table, candidates)
                top = top_k(scores, candidates, request.k)
                results.append((index, None, candidates[top],
                                scores[top]))
        for version, rows in pairs.items():
            artifact = self._versions[version]
            index, u, v = np.array(rows, dtype=np.int64).T
            scores = artifact.build_predictor().decode(
                artifact.embedding_table(), u, v)
            results.extend((i, score, None, None) for i, score
                           in zip(index.tolist(), scores.tolist()))
        return results

    # -- phase 3: observability ------------------------------------------

    def _observe(self, report: ServeReport, flushes: List[Flush]) -> None:
        """Emit serve spans, histograms and gauges for the run."""
        obs = self.observer
        if obs is None:
            return
        with obs.span("serve.run", backend=self.backend,
                      requests=len(report.outcomes)):
            clock = 0.0
            for flush in sorted(flushes, key=lambda f: f.completion_s):
                with obs.span("serve.flush", shard=flush.shard,
                              size=len(flush.seqs)):
                    obs.advance(max(0.0, flush.completion_s - clock))
                clock = max(clock, flush.completion_s)
        latency = obs.histogram("serve.latency_s")
        for value in report.latencies_s():
            latency.observe(float(value))
        for key in ("requests", "completed", "shed", "rerouted", "flushes"):
            obs.counter(f"serve.{key}").inc(report.counters.get(key, 0))
        obs.counter("serve.embed_cache_hits").inc(
            report.counters.get("embed_cache_hits", 0))
        obs.counter("serve.embed_cache_misses").inc(
            report.counters.get("embed_cache_misses", 0))
        obs.gauge("serve.queue_depth").set(
            report.counters.get("max_queue_depth", 0))

