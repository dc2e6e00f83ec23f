"""Reembedder: frontier patching must equal a full refresh bit for bit,
in the final table and in every hidden layer's table."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval import materialize_embeddings, materialize_layers
from repro.graph import Graph, synthetic_lp_graph
from repro.nn.models import build_model
from repro.sampling.neighbor import NeighborSampler
from repro.stream import (
    ArrivalPlan,
    MutableGraph,
    Reembedder,
    StreamEvent,
    affected_frontier,
)
from repro.stream.errors import StreamStateError

from conftest import assert_one_table, recorded_nodes, taped_forward


def _setup(seed=0, nodes=40, edges=120, dim=6):
    graph = synthetic_lp_graph(nodes, edges, feature_dim=dim,
                               rng=np.random.default_rng(seed))
    model = build_model("sage", dim, hidden_dim=8, num_layers=2,
                        seed=seed)
    return graph, model


class TestAffectedFrontier:
    def test_expands_by_hops_over_union_adjacency(self):
        old, _ = _setup()
        mutable = MutableGraph(old)
        zero_hop = affected_frontier(old, old, [3], hops=0)
        assert zero_hop.tolist() == [3]
        one_hop = affected_frontier(old, old, [3], hops=1)
        expected = {3} | set(old.neighbors(3).tolist())
        assert set(one_hop.tolist()) == expected

    def test_deleted_edge_still_conducts(self):
        """Both endpoints of a removed edge must stay in the frontier
        expansion — the old adjacency participates in the union."""
        old, _ = _setup()
        u, v = (int(x) for x in old.edge_list()[0])
        from repro.stream import StreamEvent
        mutable = MutableGraph(old)
        mutable.apply([StreamEvent("delete", 0, u=u, v=v)], 0)
        new = mutable.snapshot()
        frontier = affected_frontier(old, new, [u], hops=1)
        assert v in frontier.tolist()

    def test_empty_touched_set(self):
        old, _ = _setup()
        assert affected_frontier(old, old, [], hops=2).size == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_set_based_walk(self, seed):
        old, _ = _setup(seed=seed, nodes=60, edges=150)
        mutable = MutableGraph(old)
        plan = ArrivalPlan.generate(old.num_nodes, 1, seed=seed,
                                    inserts_per_tick=6.0,
                                    deletes_per_tick=6.0,
                                    drifts_per_tick=2.0)
        delta = mutable.apply(plan.events_at(0), 0)
        new = mutable.snapshot()
        touched = delta.touched_nodes()
        for hops in range(4):
            got = affected_frontier(old, new, touched, hops)
            want = _set_based_frontier(old, new, touched, hops)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(5, 40), st.integers(0, 2**31 - 1),
           st.integers(0, 4), st.data())
    def test_masks_equal_the_set_based_walk(self, n, seed, hops, data):
        """Arbitrary graph pairs and touched sets, repeats included."""
        rng = np.random.default_rng(seed)
        old, new = (Graph.from_edges(n, rng.integers(0, n, (2 * n, 2)))
                    for _ in range(2))
        touched = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
        np.testing.assert_array_equal(
            affected_frontier(old, new, touched, hops),
            _set_based_frontier(old, new, touched, hops))

    def test_out_of_range_touched_id_raises(self):
        old, _ = _setup()
        with pytest.raises(ValueError, match="outside"):
            affected_frontier(old, old, [-1], hops=1)


def _set_based_frontier(old_graph, new_graph, touched, hops):
    """The Python-set BFS ``affected_frontier`` replaced: its oracle."""
    seen = set(int(n) for n in np.asarray(touched, dtype=np.int64))
    current = sorted(seen)
    for _ in range(max(hops, 0)):
        nxt = set()
        for node in current:
            for graph in (old_graph, new_graph):
                nxt.update(graph.neighbors(node).tolist())
        fresh = nxt - seen
        if not fresh:
            break
        seen |= fresh
        current = sorted(fresh)
    return np.array(sorted(seen), dtype=np.int64)


def _per_batch_embeddings(model, graph, batch_size, batch_ids=None):
    """The per-batch export loop ``materialize_embeddings`` replaced: one
    full-neighbour MFG per ``batch_size`` node range.  Kept as the
    oracle of the one-MFG pass."""
    sampler = NeighborSampler([-1] * model.encoder.num_layers,
                              rng=np.random.default_rng(0))
    num_batches = -(-graph.num_nodes // batch_size)
    table = None
    for b in (range(num_batches) if batch_ids is None else batch_ids):
        nodes = np.arange(b * batch_size,
                          min((b + 1) * batch_size, graph.num_nodes))
        comp_graph = sampler.sample(graph, nodes)
        rows = model.embed(comp_graph,
                           graph.features[comp_graph.input_nodes]).data
        if table is None:
            table = np.zeros((graph.num_nodes, rows.shape[1]), rows.dtype)
        table[nodes] = rows
    return table


_KINDS = ["sage", "gcn", "gin", "gat", "gatv2"]


class TestOneMFGOracle:
    """One message-flow graph over the requested rows gives the bits of
    the per-batch loop, whatever that loop's batch size: a row's
    embedding never depends on which rows it is computed with.  GAT
    and GATv2 hold this only since their attention logits stopped
    being ``(n, k) @ (k, 1)`` GEMVs; the lone-row case holds only
    because a companion row keeps the product off GEMV."""

    @staticmethod
    def _case(kind, layers):
        graph = synthetic_lp_graph(150, 600, feature_dim=6,
                                   rng=np.random.default_rng(11))
        model = build_model(kind, 6, hidden_dim=16, num_layers=layers,
                            seed=5)
        return graph, model

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_all_rows(self, kind, layers):
        graph, model = self._case(kind, layers)
        table = materialize_embeddings(model, graph)
        for batch_size in (64, 512):
            oracle = _per_batch_embeddings(model, graph, batch_size)
            assert table.tobytes() == oracle.tobytes(), batch_size

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_block_subset(self, kind, layers):
        graph, model = self._case(kind, layers)
        rows = np.r_[32:48, 96:112]
        table = materialize_embeddings(model, graph, rows=rows)
        oracle = _per_batch_embeddings(model, graph, 16, [2, 6])
        assert table.tobytes() == oracle[rows].tobytes()

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_patch_unit_64_vs_512(self, kind, layers):
        graph, model = self._case(kind, layers)
        mutable = MutableGraph(graph)
        tables = []
        for patch in (64, 512):
            reembedder = Reembedder(model, batch_size=patch)
            reembedder.full_refresh(graph)
            tables.append(reembedder)
        delta = mutable.apply([StreamEvent("insert", 0, u=3, v=140),
                               StreamEvent("drift", 0, u=70, scale=0.4)],
                              0)
        snap = mutable.snapshot()
        for reembedder in tables:
            reembedder.frontier_refresh(snap, delta.touched_nodes())
        oracle = _per_batch_embeddings(model, snap, 64)
        for reembedder in tables:
            assert reembedder.table.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_lone_last_row(self, kind, layers):
        graph, model = self._case(kind, layers)
        last = graph.num_nodes - 1
        table = materialize_embeddings(model, graph, rows=[last])
        oracle = _per_batch_embeddings(model, graph, 64)
        assert table.tobytes() == oracle[[last]].tobytes()

    @pytest.mark.parametrize("kind", _KINDS)
    def test_records_no_tape_and_keeps_the_bits(self, kind):
        graph, model = self._case(kind, 2)
        with recorded_nodes() as nodes:
            table = materialize_embeddings(model, graph)
        assert nodes == [0]
        with taped_forward():
            taped = materialize_embeddings(model, graph)
        assert table.tobytes() == taped.tobytes()

    def test_rows_out_of_range(self):
        graph, model = self._case("sage", 1)
        with pytest.raises(ValueError, match="rows must lie"):
            materialize_embeddings(model, graph, rows=[graph.num_nodes])


class TestWorkCount:
    """A full refresh builds one MFG over every node; a frontier refresh
    one single-block MFG per layer, over that layer's frontier."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        calls = []
        sample = NeighborSampler.sample

        def counted(self, source, seeds):
            comp_graph = sample(self, source, seeds)
            calls.append(comp_graph)
            return comp_graph

        monkeypatch.setattr(NeighborSampler, "sample", counted)
        return calls

    def test_full_refresh_samples_once_over_every_node(self, sampled):
        graph, model = _setup()
        Reembedder(model, batch_size=8).full_refresh(graph)
        assert len(sampled) == 1
        assert sampled[0].blocks[0].num_dst == graph.num_nodes

    def test_frontier_refresh_samples_one_block_per_layer(self, sampled):
        graph, model = _setup(nodes=150, edges=200)
        reembedder = Reembedder(model, batch_size=8)
        reembedder.full_refresh(graph)
        mutable = MutableGraph(graph)
        delta = mutable.apply([StreamEvent("drift", 0, u=3, scale=0.5)],
                              0)
        reembedder.record(delta)
        snap = mutable.snapshot()
        rows = reembedder.frontier_refresh(snap)
        frontier = affected_frontier(graph, snap, [3], 2)
        blocks = np.arange(graph.num_nodes) // 8
        patched = np.flatnonzero(np.isin(blocks, frontier // 8))
        assert rows == patched.size < graph.num_nodes
        assert [len(cg.blocks) for cg in sampled] == [2, 1, 1]
        np.testing.assert_array_equal(
            sampled[1].seeds, np.union1d([3], graph.neighbors(3)))
        np.testing.assert_array_equal(sampled[2].seeds, patched)
        assert reembedder.layer_rows == [sampled[1].seeds.size, rows]


def _set_based_layer_frontiers(old_graph, new_graph, drifted, endpoints,
                              hops):
    """``F_1 .. F_hops`` of ``F_l = F_{l-1} ∪ N(F_{l-1}) ∪ E`` from
    ``F_0 = drifted`` with Python sets: the per-layer row oracle."""
    current = set(drifted)
    frontiers = []
    for _ in range(hops):
        nxt = current | set(endpoints)
        for node in current:
            for graph in (old_graph, new_graph):
                nxt.update(graph.neighbors(node).tolist())
        current = nxt
        frontiers.append(sorted(current))
    return frontiers


def _assert_tables_equal_a_full_pass(reembedder, model, graph):
    want = materialize_layers(model, graph)
    got = reembedder.hidden + [reembedder.table]
    assert len(got) == len(want) == model.encoder.num_layers
    for layer, (table, full) in enumerate(zip(got, want)):
        assert table.tobytes() == full.tobytes(), f"layer {layer}"


def _random_tick(rng, mutable, tick):
    """Inserts of random pairs, deletes of present edges, drifts."""
    n = mutable.num_nodes
    events = [StreamEvent("drift", tick, u=int(u), scale=0.3)
              for u in rng.integers(0, n, rng.integers(0, 3))]
    for u, v in rng.integers(0, n, (rng.integers(0, 4), 2)):
        if u != v:
            events.append(StreamEvent("insert", tick, u=int(u), v=int(v)))
    edges = mutable.edge_array()
    for i in rng.choice(edges.shape[0], min(rng.integers(0, 3),
                                            edges.shape[0]),
                        replace=False):
        events.append(StreamEvent("delete", tick, *edges[i].tolist()))
    rng.shuffle(events)
    return events


class TestLayerCache:
    """Every refresh leaves each hidden table and the final table
    byte-equal to a from-scratch pass; hidden layer ``l`` recomputes
    exactly ``F_l``."""

    @pytest.mark.parametrize("kind,layers",
                             [(kind, 2) for kind in _KINDS]
                             + [("sage", 3), ("gat", 3)])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**31 - 1), every=st.integers(1, 3),
           full_every=st.integers(0, 4), ticks=st.integers(1, 6),
           patch=st.sampled_from([1, 8, 64]))
    def test_random_ticks_keep_every_layer_exact(self, kind, layers, seed,
                                                 every, full_every,
                                                 ticks, patch):
        rng = np.random.default_rng(seed)
        graph = synthetic_lp_graph(40, 90, feature_dim=6, rng=rng)
        model = build_model(kind, 6, hidden_dim=8, num_layers=layers,
                            seed=seed % 97)
        mutable = MutableGraph(graph)
        reembedder = Reembedder(model, batch_size=patch)
        reembedder.full_refresh(graph)
        old, drifted, endpoints = graph, set(), set()
        for tick in range(ticks):
            delta = mutable.apply(_random_tick(rng, mutable, tick), tick)
            reembedder.record(delta)
            drifted.update(delta.drifted.tolist())
            endpoints.update(delta.inserted.ravel().tolist()
                             + delta.deleted.ravel().tolist())
            if (tick + 1) % every:
                continue
            snap = mutable.snapshot()
            if full_every and (tick + 1) % full_every == 0:
                reembedder.full_refresh(snap)
                assert reembedder.layer_rows == [40] * layers
            else:
                reembedder.frontier_refresh(snap)
                want = _set_based_layer_frontiers(
                    old, snap, drifted, endpoints, layers - 1)
                assert reembedder.layer_rows[:-1] == [len(f) for f in want]
            _assert_tables_equal_a_full_pass(reembedder, model, snap)
            old, drifted, endpoints = snap, set(), set()

    @pytest.mark.parametrize("kind", _KINDS)
    def test_lone_row_layer_matches_the_full_pass(self, kind):
        """A drifted isolated node is the whole of ``F_1``: one row,
        computed beside a companion so it stays off GEMV."""
        base = synthetic_lp_graph(60, 150, feature_dim=6,
                                  rng=np.random.default_rng(2))
        lone = base.num_nodes
        graph = Graph.from_edges(
            lone + 1, base.edge_list(),
            features=np.vstack([base.features,
                                np.ones((1, 6), dtype=np.float32)]))
        model = build_model(kind, 6, hidden_dim=16, num_layers=2, seed=4)
        reembedder = Reembedder(model, batch_size=8)
        reembedder.full_refresh(graph)
        mutable = MutableGraph(graph)
        reembedder.record(mutable.apply(
            [StreamEvent("drift", 0, u=lone, scale=0.7)], 0))
        snap = mutable.snapshot()
        assert reembedder.frontier_refresh(snap) == 5  # block 7: 56..60
        assert reembedder.layer_rows == [1, 5]
        _assert_tables_equal_a_full_pass(reembedder, model, snap)

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_full_pass_tables_are_the_engine_s(self, kind, layers):
        """The last of :func:`materialize_layers`' tables is
        :func:`materialize_embeddings`' table, and the per-batch
        loop's."""
        graph, model = TestOneMFGOracle._case(kind, layers)
        tables = materialize_layers(model, graph)
        assert [t.shape for t in tables] == [(150, 16)] * layers
        assert tables[-1].tobytes() == materialize_embeddings(
            model, graph).tobytes()
        assert tables[-1].tobytes() == _per_batch_embeddings(
            model, graph, 64).tobytes()

    def test_touched_ids_count_as_drifted_and_endpoints(self):
        graph, model = _setup(nodes=60, edges=90)
        reembedder = Reembedder(model, batch_size=8)
        reembedder.full_refresh(graph)
        reembedder.frontier_refresh(graph, [5])
        want = _set_based_layer_frontiers(graph, graph, [5], [5], 1)
        assert reembedder.layer_rows[0] == len(want[0])
        with pytest.raises(ValueError, match="outside"):
            reembedder.frontier_refresh(graph, [60])


class TestRefreshEquivalence:
    def test_frontier_patch_is_bitwise_equal_to_full(self):
        graph, model = _setup()
        plan = ArrivalPlan.generate(graph.num_nodes, 4, seed=7,
                                    inserts_per_tick=5.0,
                                    deletes_per_tick=2.0,
                                    drifts_per_tick=2.0)
        mutable = MutableGraph(graph)
        incremental = Reembedder(model, batch_size=8)
        incremental.full_refresh(mutable.snapshot())
        for tick in range(4):
            delta = mutable.apply(plan.events_at(tick), tick)
            snap = mutable.snapshot()
            incremental.frontier_refresh(snap, delta.touched_nodes())
            full = Reembedder(model, batch_size=8)
            full.full_refresh(snap)
            np.testing.assert_array_equal(incremental.table, full.table)
            assert incremental.version(snap) == full.version(snap)

    def test_untouched_tick_recomputes_nothing(self):
        graph, model = _setup()
        reembedder = Reembedder(model, batch_size=8)
        reembedder.full_refresh(graph)
        before = reembedder.rows_recomputed
        rows = reembedder.frontier_refresh(graph, [])
        assert rows == 0
        assert reembedder.rows_recomputed == before

    def test_first_frontier_call_falls_back_to_full(self):
        graph, model = _setup()
        reembedder = Reembedder(model, batch_size=8)
        rows = reembedder.frontier_refresh(graph, [0])
        assert rows == graph.num_nodes


class TestArtifacts:
    def test_version_tracks_table_and_structure(self):
        graph, model = _setup()
        reembedder = Reembedder(model, batch_size=8)
        reembedder.full_refresh(graph)
        v1 = reembedder.version(graph)
        from repro.stream import StreamEvent
        mutable = MutableGraph(graph)
        delta = mutable.apply([StreamEvent("drift", 0, u=0, scale=0.5)],
                              0)
        snap = mutable.snapshot()
        reembedder.frontier_refresh(snap, delta.touched_nodes())
        assert reembedder.version(snap) != v1

    def test_make_artifact_checksums(self):
        graph, model = _setup()
        reembedder = Reembedder(model, batch_size=8)
        reembedder.full_refresh(graph)
        assignment = np.zeros(graph.num_nodes, dtype=np.int64)
        assignment[graph.num_nodes // 2:] = 1
        artifact = reembedder.make_artifact(graph, assignment, 2)
        assert artifact.model_version == reembedder.version(graph)
        np.testing.assert_array_equal(artifact.embedding_table(),
                                      reembedder.table.astype(np.float32))

    def test_make_artifact_seeds_a_private_read_only_table(self):
        graph, model = _setup()
        reembedder = Reembedder(model, batch_size=8)
        reembedder.full_refresh(graph)
        artifact = reembedder.make_artifact(
            graph, np.arange(graph.num_nodes) % 2, 2)
        assert_one_table(artifact)
        table = artifact.embedding_table()
        assert table.dtype == np.float32
        assert all(value.dtype == np.float32
                   for value in artifact.predictor_state.values())
        assert not np.shares_memory(table, reembedder.table)
        assert table.tobytes() == reembedder.table.astype(np.float32).tobytes()

    def test_methods_require_a_table(self):
        graph, model = _setup()
        reembedder = Reembedder(model)
        with pytest.raises(StreamStateError):
            reembedder.version(graph)
        with pytest.raises(StreamStateError):
            reembedder.make_artifact(
                graph, np.zeros(graph.num_nodes, dtype=np.int64), 1)
