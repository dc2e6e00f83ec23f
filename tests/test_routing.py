"""Shard routing: owner validation and the shared per-shard fan-out."""

import multiprocessing as mp
import os
import pickle
import time

import numpy as np
import pytest

from repro.distributed.routing import ShardRouter, fan_out, guarded_recv
from repro.faults import WorkerDiedError
from repro.partition import partition_graph

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="process fan-out needs the fork start method")


@pytest.fixture
def layout(featured_graph):
    return partition_graph(featured_graph, 3, "metis",
                           rng=np.random.default_rng(3), mirror=True)


class TestShardRouterOwners:
    """A bad owner vector used to route to a shard that does not exist;
    DistributedScorer then returned that row of np.empty unscored."""

    def test_out_of_range_owner_rejected(self):
        with pytest.raises(ValueError, match="ids in"):
            ShardRouter(np.array([0, 1, 5]), 2)
        with pytest.raises(ValueError, match="ids in"):
            ShardRouter(np.array([0, -1, 1]), 2)

    def test_takes_the_owner_array_not_the_layout(self, layout):
        router = ShardRouter(layout.node_owner, layout.num_parts)
        owners, rerouted = router.route_pairs(np.array([[2, 0]]))
        assert owners.tolist() == [int(layout.node_owner[2])]
        assert not rerouted
        with pytest.raises(TypeError):
            ShardRouter(layout, layout.num_parts)

    def test_out_of_range_node_ids_rejected(self):
        """A negative id used to index the owner list from the end."""
        router = ShardRouter(np.array([0, 1, 1]), 2)
        for down in ([], [1]):
            for part in down:
                router.mark_down(part)
            for src, dst in [(-1, 0), (0, -1), (3, 0), (0, 3)]:
                with pytest.raises(ValueError, match="outside"):
                    router.route(src, dst)
                with pytest.raises(ValueError, match="outside"):
                    router.route_pairs(np.array([[src, dst]]))
            assert router.route(2, 0)[0] == (0 if down else 1)


class TestScalarRoute:
    """``route(src, dst)`` is ``route_pairs`` on one pair, under every
    down-set a 3-shard router can have."""

    def test_equals_route_pairs_for_every_pair_and_down_set(self):
        owner = np.array([0, 1, 2, 2, 1, 0, 1, 0, 2], dtype=np.int64)
        router = ShardRouter(owner, 3)
        via = {"owner": 0, "destination": 0, "first live": 0}
        for down in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2]):
            for part in range(3):
                router.mark_up(part)
            for part in down:
                router.mark_down(part)
            for src in range(owner.size):
                for dst in range(owner.size):
                    owners, rerouted = router.route_pairs(
                        np.array([[src, dst]], dtype=np.int64))
                    got = router.route(src, dst)
                    assert got == (int(owners[0]), bool(rerouted))
                    assert type(got[0]) is int and type(got[1]) is bool
                    if not rerouted:
                        via["owner"] += 1
                    elif got[0] == owner[dst]:
                        via["destination"] += 1
                    else:
                        via["first live"] += 1
        # Every branch of the fallback was taken.
        assert min(via.values()) > 0, via


def _collect(backend, shards, run, timeout_s=5.0):
    failed = []

    def fallback(shard, exc):
        failed.append((shard, type(exc).__name__))
        return ("fallback", shard)

    merged = list(fan_out(backend, shards, run, fallback, timeout_s,
                          "test"))
    return merged, failed


class TestFanOut:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_replies_merge_in_shard_order(self, backend):
        if backend == "process" and "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork")
        merged, failed = _collect(backend, [2, 0, 1],
                                  lambda shard: (shard * 10, os.getpid()))
        assert [(s, r[0]) for s, r, _ in merged] == [(2, 20), (0, 0),
                                                     (1, 10)]
        assert failed == []
        piped = backend == "process"
        assert all(p is piped for _, _, p in merged)
        assert all((r[1] != os.getpid()) is piped for _, r, _ in merged)

    @needs_fork
    def test_a_single_shard_never_forks(self):
        merged, _ = _collect("process", [4], lambda shard: os.getpid())
        assert merged == [(4, os.getpid(), False)]

    @needs_fork
    def test_dead_and_hung_children_fall_back_in_order(self):
        def run(shard):
            if shard == 1:
                os._exit(3)
            if shard == 2:
                time.sleep(1.0)  # outlives the timeout, then is joined
            return shard

        merged, failed = _collect("process", [0, 1, 2, 3], run,
                                  timeout_s=0.3)
        assert merged == [(0, 0, True), (1, ("fallback", 1), False),
                          (2, ("fallback", 2), False), (3, 3, True)]
        assert failed == [(1, "WorkerDiedError"),
                          (2, "WorkerTimeoutError")]


class _AliveChild:
    """A ``proc`` stand-in whose child never dies."""

    def is_alive(self) -> bool:
        return True


def _explode():
    raise ValueError("cannot rebuild this reply")


class _Unpicklable:
    """Pickles fine in the child; rebuilding it in the parent raises."""

    def __reduce__(self):
        return _explode, ()


class TestGuardedRecv:
    """A frame that cannot be decoded is a dead worker, never an untyped
    unpickling error escaping into the round loop."""

    @pytest.mark.parametrize("frame", [
        b"garbage",
        pickle.dumps(("result", np.arange(8)))[:-3],
        b"",
    ], ids=["garbage", "truncated", "empty"])
    def test_undecodable_frame_is_a_worker_death(self, frame):
        reader, writer = mp.Pipe(duplex=False)
        with reader, writer:
            writer.send_bytes(frame)
            with pytest.raises(WorkerDiedError) as info:
                guarded_recv(1, reader, _AliveChild(), 5.0, "test")
        assert info.value.__cause__ is not None

    @needs_fork
    def test_fan_out_falls_back_on_an_undecodable_reply(self):
        merged, failed = _collect(
            "process", [0, 1],
            lambda shard: _Unpicklable() if shard == 1 else shard)
        assert merged == [(0, 0, True), (1, ("fallback", 1), False)]
        assert failed == [(1, "WorkerDiedError")]
