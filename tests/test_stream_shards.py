"""ShardedState: the carried layout vs. from-scratch builds."""

import hashlib

import numpy as np
import pytest

from repro.distributed.comm import CommMeter, feature_nbytes
from repro.graph import Graph, synthetic_lp_graph
from repro.partition.partitioned import PartitionedGraph
from repro.partition.registry import PartitionSpec
from repro.stream import (ArrivalPlan, MutableGraph, ShardedState,
                          StreamEvent)
from repro.stream.errors import StreamError

LAYOUTS = pytest.mark.parametrize(
    "spec", [PartitionSpec("metis"), PartitionSpec("metis", mirror=True),
             PartitionSpec("vertex_cut")],
    ids=["plain", "mirror", "vertex_cut"])


def _graph(seed=0, nodes=40, edges=120):
    return synthetic_lp_graph(nodes, edges, feature_dim=6,
                              rng=np.random.default_rng(seed))


def _churn(spec, ticks=5, seed=3):
    """Apply a generated plan to both a MutableGraph and ShardedState."""
    graph = _graph()
    mutable = MutableGraph(graph)
    sharded = ShardedState(mutable.snapshot(), spec, 3, seed=seed)
    plan = ArrivalPlan.generate(graph.num_nodes, ticks, seed,
                                inserts_per_tick=6.0,
                                deletes_per_tick=2.0)
    for tick in range(ticks):
        delta = mutable.apply(plan.events_at(tick), tick)
        sharded.apply_delta(delta, mutable.snapshot())
    return mutable, sharded


def _part_edge_sets(partitioned):
    return [
        {tuple(int(x) for x in row) for row in part.edge_list()}
        for part in partitioned.parts
    ]


class TestNodeLayoutsExact:
    """Between rebalances the assignment is frozen, so incremental
    application must equal a from-scratch build on that assignment."""

    @pytest.mark.parametrize("mirror", [False, True])
    def test_incremental_equals_scratch_build(self, mirror):
        mutable, sharded = _churn(PartitionSpec("metis", mirror=mirror))
        incremental = sharded.layout
        scratch = PartitionedGraph.build(
            mutable.snapshot(), incremental.assignment, 3, mirror)
        assert _part_edge_sets(incremental) == _part_edge_sets(scratch)
        for p in range(3):
            assert np.array_equal(incremental.local_feature_nodes[p],
                                  scratch.local_feature_nodes[p])


class TestVertexCut:
    def test_cover_stays_total_and_disjoint(self):
        mutable, sharded = _churn(PartitionSpec("vertex_cut"))
        snap = mutable.snapshot()
        current = {tuple(int(x) for x in row)
                   for row in snap.edge_list()}
        stored = _part_edge_sets(sharded.layout)
        assert set().union(*stored) == current
        assert sum(len(s) for s in stored) == len(current)
        assert sharded.layout.edge_assignment.size == len(current)

    def test_online_ownership_is_deterministic(self):
        _, a = _churn(PartitionSpec("vertex_cut"), seed=3)
        _, b = _churn(PartitionSpec("vertex_cut"), seed=3)
        assert a.fingerprint() == b.fingerprint()

    def test_rebalance_restores_scratch_equality(self):
        mutable, sharded = _churn(PartitionSpec("vertex_cut"))
        snap = mutable.snapshot()
        sharded.rebalance(snap, tick=7)
        fresh = sharded.spec.build(
            snap, 3, rng=np.random.default_rng((sharded.seed, 7, 131)))
        rebuilt = sharded.layout
        assert _part_edge_sets(rebuilt) == _part_edge_sets(fresh)
        assert np.array_equal(rebuilt.edge_assignment,
                              fresh.edge_assignment)


class TestTriggersAndMeter:
    def test_needs_rebalance_thresholds(self):
        _, sharded = _churn(PartitionSpec("metis"))
        assert sharded.needs_rebalance(0.0, 0.0) is None  # disarmed
        reason = sharded.needs_rebalance(1.0 - 1e-9, 0.0)
        assert reason is not None and "edge_imbalance" in reason
        reason = sharded.needs_rebalance(0.0, 0.5)
        assert reason is not None and "replication_factor" in reason

    def test_imbalance_and_replication_values(self):
        _, sharded = _churn(PartitionSpec("metis", mirror=True))
        assert sharded.edge_imbalance() >= 1.0
        assert sharded.layout.replication_factor() >= 1.0

    def test_delta_charges_meter(self):
        graph = _graph()
        mutable = MutableGraph(graph)
        sharded = ShardedState(mutable.snapshot(),
                               PartitionSpec("metis", mirror=True),
                               3, seed=1)
        plan = ArrivalPlan.generate(graph.num_nodes, 1, seed=5,
                                    inserts_per_tick=8.0,
                                    drifts_per_tick=4.0)
        delta = mutable.apply(plan.events_at(0), 0)
        meter = CommMeter()
        sharded.apply_delta(delta, mutable.snapshot(), meter)
        total = meter.total()
        if delta.inserted.size or delta.deleted.size:
            assert total.structure_bytes > 0
        if delta.drifted.size:
            rows = sum(len(sharded.layout.replicas_of(int(n)))
                       for n in delta.drifted)
            assert total.feature_bytes == feature_nbytes(
                rows, graph.feature_dim)

    def test_rebalance_charges_migration(self):
        mutable, sharded = _churn(PartitionSpec("metis", mirror=True))
        meter = CommMeter()
        tally = sharded.rebalance(mutable.snapshot(), tick=9, meter=meter)
        assert sharded.rebalances == 1
        assert tally["moved_edges"] >= 0
        if tally["moved_edges"]:
            assert meter.total().structure_bytes > 0


class TestConsistencyAndState:
    @LAYOUTS
    def test_out_of_sync_snapshot_rejected(self, spec):
        mutable, sharded = _churn(spec, ticks=2)
        plan = ArrivalPlan.generate(mutable.snapshot().num_nodes, 6,
                                    seed=99, inserts_per_tick=6.0)
        mutable.apply(plan.events_at(4), 4)  # not applied to shards
        delta = mutable.apply(plan.events_at(5), 5)
        before = sharded.fingerprint()
        with pytest.raises(StreamError, match="out of sync"):
            sharded.apply_delta(delta, mutable.snapshot())
        assert sharded.fingerprint() == before

    def test_vertex_cut_rejects_a_swapped_edge(self):
        """Same edge count, different edge: only the owner cover sees
        it."""
        mutable, sharded = _churn(PartitionSpec("vertex_cut"), ticks=2)
        edges = mutable.edge_array()
        gone = tuple(int(x) for x in edges[0])
        new = next((u, v) for u in range(40) for v in range(u + 1, 40)
                   if not mutable.has_edge(u, v))
        mutable.apply([StreamEvent("delete", 2, *gone),
                       StreamEvent("insert", 2, *new)], 2)  # unseen
        delta = mutable.apply([], 3)
        with pytest.raises(StreamError, match="edge owners"):
            sharded.apply_delta(delta, mutable.snapshot())

    def test_resume_rejects_a_foreign_snapshot(self):
        spec = PartitionSpec("vertex_cut")
        mutable, sharded = _churn(spec)
        state = sharded.state_arrays()
        mutable.apply([StreamEvent("delete", 9,
                                   *mutable.edge_array()[0])], 9)
        with pytest.raises(StreamError, match="edge owners"):
            ShardedState.from_state_arrays(
                state, mutable.snapshot(), spec, 3, seed=3)

    @LAYOUTS
    def test_state_round_trip_preserves_fingerprint(self, spec):
        mutable, sharded = _churn(spec)
        snap = mutable.snapshot()
        clone = ShardedState.from_state_arrays(
            sharded.state_arrays(), snap, spec, 3, seed=3)
        assert clone.fingerprint() == sharded.fingerprint()
        assert _part_edge_sets(clone.layout) == \
            _part_edge_sets(sharded.layout)


def _copying_fingerprint(sharded):
    """:meth:`ShardedState.fingerprint` as it read before hashing
    through the buffer protocol: every part through the checked
    ``edge_list()``, every array copied by ``tobytes``."""
    layout = sharded.layout
    digest = hashlib.sha256()
    digest.update(np.int64([layout.num_parts, sharded.rebalances,
                            int(layout.edge_partitioned),
                            int(layout.mirror)]).tobytes())
    digest.update(layout.assignment.astype(np.int64).tobytes())
    for part in layout.parts:
        digest.update(part.edge_list().tobytes())
    if layout.edge_partitioned:
        digest.update(layout.full.edge_list().tobytes())
        digest.update(layout.edge_assignment.tobytes())
    return digest.hexdigest()


class TestFingerprintOracle:
    @LAYOUTS
    def test_equals_the_copying_form_under_churn(self, spec):
        _, sharded = _churn(spec)
        assert sharded.fingerprint() == _copying_fingerprint(sharded)
        sharded.layout.assignment = np.repeat(
            sharded.layout.assignment, 2)[::2]
        assert not sharded.layout.assignment.flags.c_contiguous
        assert sharded.fingerprint() == _copying_fingerprint(sharded)

    @LAYOUTS
    def test_raw_constructor_graph(self, spec):
        """Shards of a CSR whose rows are not in the canonical layout
        (neighbours in descending order)."""
        graph = _graph()
        rows = [graph.indices[a:b][::-1] for a, b in
                zip(graph.indptr[:-1], graph.indptr[1:])]
        raw = Graph(graph.indptr, np.concatenate(rows),
                    features=graph.features)
        sharded = ShardedState(raw, spec, 3, seed=3)
        assert sharded.fingerprint() == _copying_fingerprint(sharded)


class TestOneDecodePerSnapshot:
    @LAYOUTS
    def test_a_tick_decodes_its_snapshot_once(self, spec, monkeypatch):
        """Advancing the layout, fingerprinting it and drawing the
        rollout probes read the edge rows the snapshot was built with:
        one decode of the keys per tick, none of the CSR."""
        from repro.stream import mutable as mutable_mod
        from repro.stream.rollout import probe_pairs

        graph = _graph()
        mutable = MutableGraph(graph)
        sharded = ShardedState(mutable.snapshot(), spec, 3, seed=3)
        plan = ArrivalPlan.generate(graph.num_nodes, 4, 3,
                                    inserts_per_tick=6.0,
                                    deletes_per_tick=2.0)
        decodes = {"keys": 0, "csr": 0}
        rows, edge_list = mutable_mod._edge_rows, Graph.edge_list

        def counted_rows(keys, n):
            decodes["keys"] += 1
            return rows(keys, n)

        def counted_edge_list(g):
            if g._edge_rows is None:
                decodes["csr"] += 1
            return edge_list(g)

        monkeypatch.setattr(mutable_mod, "_edge_rows", counted_rows)
        monkeypatch.setattr(Graph, "edge_list", counted_edge_list)
        for tick in range(4):
            delta = mutable.apply(plan.events_at(tick), tick)
            snapshot = mutable.snapshot()
            sharded.apply_delta(delta, snapshot)
            sharded.fingerprint()
            mutable.fingerprint()
            probe_pairs(snapshot, seed=3, tick=tick)
        # One decode of the keys per tick; the deltas' few rows are
        # decoded from their own keys.
        assert decodes["csr"] == 0
        assert decodes["keys"] == 4 * 3
        assert not snapshot.edge_list().flags.writeable
