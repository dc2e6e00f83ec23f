"""The two invariants the vectorised serve path rests on.

1. **LRU inclusion property => exact batch admission.**
   ``LRUCache.admit_unique`` must reproduce the per-key loop — hits,
   misses, returned misses and final recency order — on any
   interleaving with ordinary ``admit`` runs.  The reference model
   below is the per-key ``OrderedDict`` loop, kept here on purpose.
2. **Stacked matmul = per-row kernel.**  NumPy evaluates
   ``(n, 1, d) @ (d, h)`` as ``n`` independent ``1 x d`` products, so
   decoding all pairs of a shard in one call is bit-equal to decoding
   each alone.  The canary fails loudly if a NumPy ever collapses the
   stack into one gemm (which would shift digests across a hot swap).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.models import DotPredictor, MLPPredictor
from repro.nn.tensor import Tensor
from repro.serve import (
    ClosedLoopWorkload,
    LRUCache,
    ServingCluster,
    artifact_from_table,
    synthetic_requests,
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
    def test_numpy_runs_a_stacked_matmul_row_by_row(self):
        """Canary: (n,1,d) @ (d,h) is n independent 1 x d kernels."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((257, 64))
        w = rng.standard_normal((64, 64))
        stacked = np.matmul(x[:, None, :], w)[:, 0, :]
        rows = np.stack([(x[[i]] @ w)[0] for i in range(x.shape[0])])
        assert stacked.tobytes() == rows.tobytes(), (
            "this NumPy evaluates a stacked matmul differently from a "
            "row-at-a-time loop; ServingCluster._execute_shard relies "
            "on the two being bit-equal")

    @pytest.mark.parametrize("kind", ["mlp", "dot"])
    def test_predictors_score_a_stacked_block_like_single_rows(self, kind):
        rng = np.random.default_rng(1)
        predictor = (MLPPredictor(64, num_layers=3, rng=rng)
                     if kind == "mlp" else DotPredictor()).eval()
        h_u = rng.standard_normal((130, 64))
        h_v = rng.standard_normal((130, 64))
        stacked = predictor(Tensor(h_u[:, None, :]),
                            Tensor(h_v[:, None, :])).data
        assert stacked.shape == (130,)
        rows = np.array([
            predictor(Tensor(h_u[[i]]), Tensor(h_v[[i]])).data[0]
            for i in range(130)])
        assert stacked.tobytes() == rows.tobytes()

    def test_dot_predictor_is_unchanged_on_2d_input(self):
        rng = np.random.default_rng(2)
        h_u, h_v = rng.standard_normal((2, 50, 33))
        got = DotPredictor()(Tensor(h_u), Tensor(h_v)).data
        assert got.tobytes() == (h_u * h_v).sum(axis=1).tobytes()

    def test_pairs_decode_in_one_call_per_shard_and_version(self):
        rng = np.random.default_rng(3)
        assignment = np.arange(90, dtype=np.int64) % 3
        predictor = MLPPredictor(8, num_layers=2, rng=rng)
        artifact = artifact_from_table(
            rng.standard_normal((90, 8)), "v0", "mlp",
            predictor.state_dict(), assignment, 3)
        cluster = ServingCluster(artifact, max_batch=4)
        table, decoder = cluster._versions["v0"]
        calls = []

        def counting(h_u, h_v):
            calls.append(h_u.shape)
            return decoder(h_u, h_v)

        cluster._versions["v0"] = (table, counting)
        requests = synthetic_requests(60, 90, seed=4, topk_fraction=0.0)
        report = cluster.serve(ClosedLoopWorkload(requests, num_clients=6))
        assert report.counters["flushes"] > 3
        assert len(calls) == 3
        assert sum(shape[0] for shape in calls) == 60
        assert all(shape[1:] == (1, 8) for shape in calls)
        for outcome in report.completed():
            u, v = outcome.request.u, outcome.request.v
            alone = decoder(Tensor(table[[u]]), Tensor(table[[v]])).data[0]
            assert outcome.score == alone
