"""The invariants the vectorised serve path rests on.

1. **LRU inclusion property => exact batch admission.**
   ``LRUCache.admit_unique`` must reproduce the per-key loop — hits,
   misses, returned misses and final recency order — on any
   interleaving with ordinary ``admit`` runs.  The reference model
   below is the per-key ``OrderedDict`` loop, kept here on purpose.
2. **One decode call = per-pair decodes.**  The forward-only decode
   scores a block of pairs bit-equal to scoring each alone, so
   decoding all pairs of a shard and version in one call cannot shift
   a digest across a hot swap (``scripts/envcheck.py`` is the BLAS
   canary it rests on).
3. **Top-k selection and admission keep the old order.**  ``top_k``
   equals the full ``lexsort`` it replaced, and ``ClosedLoopWorkload``
   issues the request sequence of the list-popping loop it replaced.
4. **One pending deadline per shard plans what a deadline per re-check
   planned.**  ``MicroBatchScheduler`` against the event loop it
   replaced, kept below as an oracle subclass.
"""

from __future__ import annotations

import dataclasses
import heapq
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.store import RemoteGraphStore
from repro.faults.plan import FaultEvent, FaultPlan
from repro.graph import synthetic_lp_graph
from repro.nn.models import DotPredictor, MLPPredictor
from repro.nn.tensor import Tensor
from repro.serve import (
    ClosedLoopWorkload,
    LRUCache,
    OpenLoopWorkload,
    ScoreRequest,
    ServingCluster,
    artifact_from_table,
    synthetic_requests,
)
from repro.serve import cluster as cluster_module
from repro.serve.cluster import top_k
from repro.serve.scheduler import (
    _ARRIVAL,
    _DEADLINE,
    MicroBatchScheduler,
)


class ReferenceLRU:
    """Strict per-key LRU: the behaviour both admit paths must have."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: "OrderedDict[int, None]" = OrderedDict()
        self.hits = self.misses = 0

    def admit(self, keys) -> list:
        missing = []
        for key in keys:
            if key in self.entries:
                self.hits += 1
                self.entries.move_to_end(key)
                continue
            self.misses += 1
            missing.append(key)
            if self.capacity:
                self.entries[key] = None
                while len(self.entries) > self.capacity:
                    self.entries.popitem(last=False)
        return missing


def _replay(capacity, ops):
    """Apply ``(is_sweep, keys)`` ops to both caches, comparing the
    whole observable state after every one."""
    cache, reference = LRUCache(capacity), ReferenceLRU(capacity)
    for is_sweep, keys in ops:
        want = reference.admit(keys)
        if is_sweep:
            got = cache.admit_unique(np.array(keys, dtype=np.int64))
            assert isinstance(got, np.ndarray)
            got = got.tolist()
        else:
            got = cache.admit(keys)
        assert got == want
        assert (cache.hits, cache.misses) == (reference.hits,
                                              reference.misses)
        assert list(cache._entries) == list(reference.entries)
        assert len(cache) <= capacity


_KEYS = st.integers(0, 15)
_OPS = st.lists(st.one_of(
    st.tuples(st.just(False), st.lists(_KEYS, max_size=6)),
    # Duplicate-free, unsorted, any length from empty to every key:
    # below, at and above every capacity drawn.
    st.tuples(st.just(True), st.lists(_KEYS, unique=True))), max_size=12)


class TestBatchAdmission:
    @given(capacity=st.integers(0, 9), ops=_OPS)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_key_model(self, capacity, ops):
        _replay(capacity, ops)

    @pytest.mark.parametrize("capacity", [0, 4, 128, 512])
    def test_serve_shaped_stream(self, capacity):
        """Sorted ~900-row sweeps (query node first when remote) between
        short duplicate-carrying pair runs, at cache sizes around and
        far below the sweep."""
        rng = np.random.default_rng(capacity)
        remote = np.flatnonzero(rng.random(1200) < 0.75)
        ops = []
        for _ in range(12):
            for _ in range(int(rng.integers(0, 6))):
                ops.append((False, rng.choice(remote, 4).tolist()))
            node = int(rng.integers(0, 1200))
            sweep = remote[remote != node].tolist()
            if node in set(remote.tolist()):
                ops.append((False, [node]))
            ops.append((True, sweep))
        _replay(capacity, ops)

    @pytest.mark.parametrize("capacity", [4096, 8192])
    def test_large_capacities(self, capacity):
        """Sweeps of ~9 000 rows against caches holding thousands of
        matched entries: many blocks of the blocked recency count."""
        rng = np.random.default_rng(capacity)
        remote = np.flatnonzero(rng.random(12000) < 0.75)
        ops = []
        for _ in range(5):
            ops.append((False, rng.choice(remote, 5).tolist()))
            node = int(rng.integers(0, 12000))
            ops.append((True, rng.permutation(remote[remote != node])
                        .tolist()))
        _replay(capacity, ops)

    def test_sweep_memory_is_linear_in_the_matches(self):
        """~9 000 cached keys matched by one 30 000-key sweep: a pairwise
        recency matrix would need ~80 MB per copy."""
        cache, reference = LRUCache(16384), ReferenceLRU(16384)
        fill = np.arange(16384, dtype=np.int64)
        cache.admit_unique(fill)
        reference.admit(fill.tolist())
        sweep = np.random.default_rng(0).permutation(30000)
        tracemalloc.start()
        try:
            missed = cache.admit_unique(sweep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        assert missed.tolist() == reference.admit(sweep.tolist())
        assert (cache.hits, cache.misses) == (reference.hits,
                                              reference.misses)
        assert list(cache._entries) == list(reference.entries)

    def test_partial_sweeps_keep_untouched_entries_in_order(self):
        cache = LRUCache(6)
        cache.admit([1, 2, 3, 4, 5, 6])
        missed = cache.admit_unique(np.array([9, 3, 2]))
        assert missed.tolist() == [9]
        # 1 was least recent and made room for 9; 3 and 2 were
        # refreshed in batch order behind it.
        assert list(cache._entries) == [4, 5, 6, 9, 3, 2]
        assert cache.counters() == {"hits": 2, "misses": 7, "size": 6}
        # ... whereas here 4 is evicted by 7 before its own lookup.
        assert cache.admit_unique(np.array([7, 4])).tolist() == [7, 4]


class TestStackedDecoding:
    @pytest.mark.parametrize("kind", ["mlp", "dot"])
    def test_predictors_score_a_stacked_block_like_single_rows(self, kind):
        rng = np.random.default_rng(1)
        predictor = (MLPPredictor(64, num_layers=3, rng=rng)
                     if kind == "mlp" else DotPredictor())
        for dtype in (np.float32, np.float64):
            table = rng.standard_normal((260, 64)).astype(dtype)
            u, v = np.arange(130), np.arange(130, 260)
            block = predictor.decode(table, u, v)
            assert block.shape == (130,) and block.dtype == dtype
            rows = np.concatenate([predictor.decode(table, u[[i]], v[[i]])
                                   for i in range(130)])
            assert block.tobytes() == rows.tobytes()

    def test_dot_predictor_is_unchanged_on_2d_input(self):
        rng = np.random.default_rng(2)
        h_u, h_v = rng.standard_normal((2, 50, 33))
        got = DotPredictor()(Tensor(h_u), Tensor(h_v)).data
        assert got.tobytes() == (h_u * h_v).sum(axis=1).tobytes()

    def test_pairs_decode_in_one_call_per_shard_and_version(
            self, monkeypatch):
        rng = np.random.default_rng(3)
        assignment = np.arange(90, dtype=np.int64) % 3
        predictor = MLPPredictor(8, num_layers=2, rng=rng)
        artifact = artifact_from_table(
            rng.standard_normal((90, 8)), "v0", "mlp",
            predictor.state_dict(), assignment, 3)
        cluster = ServingCluster(artifact, max_batch=4)
        table, decoder = artifact.table, artifact.build_predictor()
        calls = []

        class Counting:
            def decode(self, table, u, v):
                calls.append(len(u))
                return decoder.decode(table, u, v)

        monkeypatch.setattr(artifact, "build_predictor", Counting)
        requests = synthetic_requests(60, 90, seed=4, topk_fraction=0.0)
        report = cluster.serve(ClosedLoopWorkload(requests, num_clients=6))
        assert report.counters["flushes"] > 3
        assert len(calls) == 3 and sum(calls) == 60
        for outcome in report.completed():
            u, v = outcome.request.u, outcome.request.v
            assert outcome.score == decoder.decode(table, [u], [v])[0]


_SCORES = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 2.0, np.inf,
                           -np.inf, np.nan])


class TestTopKSelection:
    """``top_k`` against the full sort it replaced."""

    @given(scores=st.lists(_SCORES, max_size=40), k=st.integers(0, 45),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_full_lexsort(self, scores, k, data):
        ids = np.array(data.draw(st.permutations(range(100)))[:len(scores)],
                       dtype=np.int64)
        scores = np.array(scores, dtype=np.float64)
        want = np.lexsort((ids, -scores))[:k]
        assert top_k(scores, ids, k).tolist() == want.tolist()

    @pytest.mark.parametrize("k", [1, 10, 399, 400, 401])
    def test_ties_at_the_kth_score(self, k):
        """Integer-valued scores: every cut lands inside a tie group;
        k = n - 1, n and n + 1 included."""
        rng = np.random.default_rng(k)
        scores = rng.integers(0, 6, 400).astype(np.float64)
        ids = rng.permutation(1000)[:400]
        got = top_k(scores, ids, k)
        assert got.tolist() == np.lexsort((ids, -scores))[:k].tolist()
        if k < 400:
            kth = -np.sort(-scores)[k - 1]
            assert (scores == kth).sum() > 1

    def test_nan_scores_take_the_full_sort(self):
        scores = np.array([1.0, np.nan, 3.0, np.nan, 2.0])
        ids = np.arange(5)
        assert top_k(scores, ids, 2).tolist() == [2, 4]
        assert top_k(scores, ids, 4).tolist() == [2, 4, 0, 1]


class _PoppingClosedLoop(ClosedLoopWorkload):
    """The list-popping ``_next`` the cursor replaced (the oracle)."""

    def _next(self, time_s):
        if not self._pending:
            return []
        return [(time_s, self._pending.pop(0))]


class TestClosedLoopOrder:
    def test_issues_the_popping_sequence(self):
        requests = synthetic_requests(40, 30, seed=2)
        new = ClosedLoopWorkload(requests, num_clients=7, think_time_s=1e-3)
        old = _PoppingClosedLoop(requests, num_clients=7, think_time_s=1e-3)
        assert new.initial() == old.initial()
        for step in range(40):
            got = new.on_complete(requests[step], 0.5 * step, "ok")
            assert got == old.on_complete(requests[step], 0.5 * step, "ok")
        assert new.on_complete(requests[0], 99.0, "shed") == []


class _EveryRecheckScheduler(MicroBatchScheduler):
    """The event loop the one-deadline-per-shard planner replaced (the
    oracle): every failed dispatch check pushes a deadline event, and
    every deadline event re-runs the check."""

    def run(self, workload):
        for time_s, request in workload.initial():
            self._push(max(0.0, float(time_s)), _ARRIVAL, request)
        while self._heap:
            time_s, _, kind, payload = heapq.heappop(self._heap)
            if kind == _ARRIVAL:
                self._admit(time_s, payload)
            elif kind == _DEADLINE:
                self._maybe_dispatch(payload, time_s)
            else:
                self._complete(time_s, payload, workload)

    def _maybe_dispatch(self, shard, now):
        if self._busy[shard]:
            return
        queue = self._queues[shard]
        if not queue:
            return
        due = self.outcomes[queue[0]].arrival_s + self.max_delay_s
        if len(queue) >= self.max_batch or now >= due:
            self._dispatch(shard, now)
            return
        self._push(due, _DEADLINE, shard)


@pytest.fixture(scope="module")
def planner_fixture():
    """Two 60-node versions of one 3-shard layout and a graph store."""
    rng = np.random.default_rng(11)
    assignment = rng.integers(0, 3, 60)
    predictor = MLPPredictor(8, num_layers=2, rng=rng)
    old, new = (artifact_from_table(
        rng.standard_normal((60, 8)).astype(np.float32), name, "mlp",
        predictor.state_dict(), assignment, 3) for name in ("v0", "v1"))
    graph = synthetic_lp_graph(60, 240, 4, 3, rng=rng)
    return old, new, RemoteGraphStore(graph)


_PLANS = {
    "none": None,
    "crash": FaultPlan(events=(
        FaultEvent(kind="crash", epoch=0, round=5, worker=1),)),
    "store_outage": FaultPlan(events=(
        FaultEvent(kind="store_outage", epoch=0, round=3, worker=0,
                   rounds=12),)),
    "straggle": FaultPlan(events=(
        FaultEvent(kind="straggle", epoch=0, round=2, worker=2,
                   delay_s=4e-3),)),
}


def _plan_with(monkeypatch, scheduler_cls, cluster, workload, swaps):
    """Serve with ``scheduler_cls`` planning; return the report and the
    scheduler."""
    made = []

    class Recording(scheduler_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(cluster_module, "MicroBatchScheduler", Recording)
    report = cluster.serve(workload(), swaps=swaps)
    return report, made[0]


def _outcome_fields(outcome):
    return tuple(value.tobytes() if isinstance(value, np.ndarray) else value
                 for value in dataclasses.astuple(outcome))


def _flush_fields(flush):
    meta = flush.meta
    return (flush.shard, flush.seqs, flush.dispatch_s, flush.completion_s,
            flush.service_s, meta.get("shed"), meta.get("embed_missed"),
            meta.get("work_rows"), meta.get("pairs"), meta.get("topk"),
            sorted((i, e.tolist())
                   for i, e in meta.get("exclusions", {}).items()))


class TestOnePendingDeadline:
    @given(closed=st.booleans(), count=st.integers(1, 60),
           topk=st.sampled_from([0.0, 0.1, 0.5]),
           clients=st.integers(1, 8),
           think=st.sampled_from([0.0, 1e-4, 1e-3]),
           rate=st.sampled_from([300.0, 5e3, 1e8]),
           max_batch=st.integers(1, 5),
           max_delay=st.sampled_from([0.0, 1e-4, 2e-3]),
           max_queue=st.sampled_from([1, 2, 64]),
           caches=st.sampled_from([(0, 0), (4, 2), (256, 256)]),
           plan=st.sampled_from(sorted(_PLANS)),
           swap=st.one_of(st.none(), st.integers(0, 60)),
           seed=st.integers(0, 2**16))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_plans_what_the_every_recheck_loop_planned(
            self, planner_fixture, closed, count, topk, clients, think,
            rate, max_batch, max_delay, max_queue, caches, plan, swap,
            seed):
        old, new, store = planner_fixture
        requests = synthetic_requests(count, 60, seed=seed,
                                      topk_fraction=topk)

        def workload():
            if closed:
                return ClosedLoopWorkload(requests, num_clients=clients,
                                          think_time_s=think)
            return OpenLoopWorkload(requests, rate_rps=rate, seed=seed)

        cluster = ServingCluster(
            old, store=store, max_batch=max_batch, max_delay_s=max_delay,
            max_queue=max_queue, embed_cache=caches[0],
            neighbor_cache=caches[1], plan=_PLANS[plan])
        cluster.register_version(new)
        swaps = None if swap is None else [(swap, new.model_version)]
        with pytest.MonkeyPatch.context() as monkeypatch:
            want, oracle = _plan_with(monkeypatch, _EveryRecheckScheduler,
                                      cluster, workload, swaps)
            got, planner = _plan_with(monkeypatch, MicroBatchScheduler,
                                      cluster, workload, swaps)
        assert got.digest() == want.digest()
        assert got.counters == want.counters
        assert ([_outcome_fields(o) for o in planner.outcomes]
                == [_outcome_fields(o) for o in oracle.outcomes])
        assert ([_flush_fields(f) for f in planner.flushes]
                == [_flush_fields(f) for f in oracle.flushes])
        assert planner._pushes <= oracle._pushes

    def test_a_shard_keeps_one_pending_deadline(self, planner_fixture):
        """A slow trickle into one shard: every admission re-checks the
        queue, but only a new queue head arms a new deadline."""
        old, _, _ = planner_fixture
        node = int(np.flatnonzero(old.assignment == 0)[0])
        requests = [ScoreRequest(node, node)] * 6
        cluster = ServingCluster(old, max_batch=8, max_delay_s=1e-3)
        with pytest.MonkeyPatch.context() as monkeypatch:
            want, oracle = _plan_with(
                monkeypatch, _EveryRecheckScheduler, cluster,
                lambda: OpenLoopWorkload(requests, rate_rps=2e4, seed=1),
                None)
            got, planner = _plan_with(
                monkeypatch, MicroBatchScheduler, cluster,
                lambda: OpenLoopWorkload(requests, rate_rps=2e4, seed=1),
                None)
        assert got.digest() == want.digest()
        deadlines = planner._pushes - 6 - len(planner.flushes)
        assert deadlines == len(planner.flushes)
        assert oracle._pushes > planner._pushes
