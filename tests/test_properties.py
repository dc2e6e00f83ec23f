"""Property-based tests (hypothesis) on core data structures/invariants."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.distributed.comm import CommRecord
from repro.eval import auc, hits_at_k
from repro.graph import Graph, exact_effective_resistance, laplacian
from repro.nn import Tensor, bce_with_logits, segment_softmax, segment_sum
from repro.partition import (
    PartitionedGraph,
    edge_cut,
    metis_partition,
    random_tma_partition,
)
from repro.partition.registry import PartitionSpec
from repro.serve import ScoreRequest, TopKRequest
from repro.serve.requests import STATUSES, RequestOutcome, ServeReport
from repro.sparsify import (
    approx_effective_resistance,
    sampling_probabilities,
    spielman_srivastava_sparsify,
)
from repro.stream import MutableGraph, ShardedState, StreamEvent
from repro.stream.errors import StreamError

common_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, min_nodes=3, max_nodes=24):
    """Connected-ish simple undirected graphs as (num_nodes, edges)."""
    n = draw(st.integers(min_nodes, max_nodes))
    # Spanning-path backbone guarantees no isolated nodes.
    backbone = [(i, i + 1) for i in range(n - 1)]
    extra_count = draw(st.integers(0, n))
    extras = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=extra_count, max_size=extra_count))
    edges = backbone + [e for e in extras if e[0] != e[1]]
    return n, np.asarray(edges, dtype=np.int64)


class TestGraphProperties:
    @common_settings
    @given(random_graphs())
    def test_edge_list_roundtrip(self, g):
        n, edges = g
        graph = Graph.from_edges(n, edges)
        rebuilt = Graph.from_edges(n, graph.edge_list())
        assert np.array_equal(graph.edge_list(), rebuilt.edge_list())
        assert np.array_equal(graph.indptr, rebuilt.indptr)

    @common_settings
    @given(random_graphs())
    def test_degree_sum_is_twice_edges(self, g):
        n, edges = g
        graph = Graph.from_edges(n, edges)
        assert graph.degrees.sum() == 2 * graph.num_edges

    @common_settings
    @given(random_graphs())
    def test_adjacency_symmetric(self, g):
        n, edges = g
        graph = Graph.from_edges(n, edges)
        adj = graph.adjacency().toarray()
        assert np.allclose(adj, adj.T)

    @common_settings
    @given(random_graphs())
    def test_laplacian_psd(self, g):
        n, edges = g
        graph = Graph.from_edges(n, edges)
        eigvals = np.linalg.eigvalsh(laplacian(graph).toarray())
        assert eigvals.min() >= -1e-9


class TestEffectiveResistanceProperties:
    @common_settings
    @given(random_graphs(max_nodes=16))
    def test_lower_bound_theorem2(self, g):
        n, edges = g
        graph = Graph.from_edges(n, edges)
        e = graph.edge_list()
        exact = exact_effective_resistance(graph, e)
        approx = approx_effective_resistance(graph, e)
        assert np.all(exact >= 0.5 * approx - 1e-8)

    @common_settings
    @given(random_graphs(max_nodes=16))
    def test_resistance_at_most_one_for_edges(self, g):
        """For an edge (u,v), r_uv <= 1 (shorting through the edge)."""
        n, edges = g
        graph = Graph.from_edges(n, edges)
        exact = exact_effective_resistance(graph)
        assert np.all(exact <= 1.0 + 1e-8)

    @common_settings
    @given(random_graphs(max_nodes=16), st.integers(0, 2**31 - 1))
    def test_sparsifier_invariants(self, g, seed):
        n, edges = g
        graph = Graph.from_edges(n, edges)
        rng = np.random.default_rng(seed)
        m = graph.num_edges
        sparse = spielman_srivastava_sparsify(graph, 2 * m, rng=rng)
        # nodes preserved, edges subset, weights positive
        assert sparse.num_nodes == n
        orig = set(map(tuple, graph.edge_list().tolist()))
        assert all(tuple(e) in orig for e in sparse.edge_list().tolist())
        assert np.all(sparse.edge_weight_list() > 0)

    @common_settings
    @given(random_graphs(max_nodes=16))
    def test_probabilities_sum_to_one(self, g):
        n, edges = g
        graph = Graph.from_edges(n, edges)
        p = sampling_probabilities(graph)
        assert p.sum() == pytest.approx(1.0)


class TestPartitionProperties:
    @common_settings
    @given(random_graphs(min_nodes=8, max_nodes=40),
           st.integers(2, 4), st.integers(0, 2**31 - 1))
    def test_metis_cover_and_range(self, g, k, seed):
        n, edges = g
        assume(n >= 2 * k)
        graph = Graph.from_edges(n, edges)
        a = metis_partition(graph, k, rng=np.random.default_rng(seed))
        assert a.shape == (n,)
        assert a.min() >= 0 and a.max() < k

    @common_settings
    @given(random_graphs(min_nodes=8, max_nodes=30),
           st.integers(2, 3), st.integers(0, 2**31 - 1))
    def test_partition_edge_conservation(self, g, k, seed):
        """induced-local + cut = total; mirrored-local - cut = total."""
        n, edges = g
        assume(n >= 2 * k)
        graph = Graph.from_edges(n, edges)
        rng = np.random.default_rng(seed)
        a = random_tma_partition(graph, k, rng=rng)
        cut = edge_cut(graph, a)
        induced = PartitionedGraph.build(graph, a, k, mirror=False)
        mirrored = PartitionedGraph.build(graph, a, k, mirror=True)
        assert sum(p.num_edges for p in induced.parts) == \
            graph.num_edges - cut
        assert sum(p.num_edges for p in mirrored.parts) == \
            graph.num_edges + cut


def _reference_assemble(graph, node_owner, k, mirror, edge_owner):
    """The per-part ``from_edges`` placement ``assemble`` replaced: the
    kept edges rebuilt into a CSR, stored nodes as a ``union1d``."""
    edges = graph.edge_list()
    parts, stored = [], []
    for i in range(k):
        if edge_owner is not None:
            keep = edge_owner == i
        elif mirror:
            keep = (node_owner[edges[:, 0]] == i) | (
                node_owner[edges[:, 1]] == i)
        else:
            keep = (node_owner[edges[:, 0]] == i) & (
                node_owner[edges[:, 1]] == i)
        parts.append(Graph.from_edges(graph.num_nodes, edges[keep]))
        stored.append(np.union1d(np.flatnonzero(node_owner == i),
                                 edges[keep].ravel()))
    return parts, stored


def _shuffled_rows(graph, rng):
    """``graph`` through the raw constructor, each row's entries in a
    random order (not the canonical layout ``from_edges`` writes)."""
    indices = graph.indices.copy()
    for x in range(graph.num_nodes):
        lo, hi = graph.indptr[x], graph.indptr[x + 1]
        indices[lo:hi] = rng.permutation(indices[lo:hi])
    return Graph(graph.indptr, indices)


class TestAssembleMasks:
    """Masking the full CSR gives, array for array, the per-part
    ``from_edges`` placement of every mask, on canonical and on
    shuffled raw-constructor graphs."""

    @common_settings
    @given(random_graphs(min_nodes=3, max_nodes=30), st.integers(1, 4),
           st.sampled_from(["plain", "mirror", "vertex_cut"]),
           st.booleans(), st.integers(0, 2**31 - 1))
    def test_equals_per_part_from_edges(self, g, k, mask, shuffle, seed):
        n, edges = g
        rng = np.random.default_rng(seed)
        graph = Graph.from_edges(n, edges)
        if shuffle:
            graph = _shuffled_rows(graph, rng)
        node_owner = rng.integers(0, k, n)
        edge_owner = (rng.integers(0, k, graph.num_edges)
                      if mask == "vertex_cut" else None)
        mirror = mask != "plain"
        layout = PartitionedGraph.assemble(graph, node_owner, k, mirror,
                                           edge_owner)
        parts, stored = _reference_assemble(graph, node_owner, k, mirror,
                                            edge_owner)
        for i in range(k):
            assert np.array_equal(layout.parts[i].indptr, parts[i].indptr)
            assert np.array_equal(layout.parts[i].indices,
                                  parts[i].indices)
            assert layout.parts[i].indices.dtype == np.int64
            assert np.array_equal(layout.local_feature_nodes[i], stored[i])
            assert np.array_equal(layout.replica_mask()[i],
                                  np.isin(np.arange(n), stored[i]))
        assert layout.full is graph


class _SetMutableGraph:
    """The tuple-set edge state ``MutableGraph`` replaced, kept as the
    reference for edge events (drift is not modelled)."""

    def __init__(self, graph):
        self.edges = {tuple(e) for e in graph.edge_list().tolist()}

    def apply(self, events):
        inserted, deleted, skipped = [], [], 0
        for event in events:
            if event.kind == "drift":
                continue
            key = event.edge
            if (event.kind == "insert") == (key in self.edges):
                skipped += 1
            elif event.kind == "insert":
                self.edges.add(key)
                inserted.append(key)
            else:
                self.edges.remove(key)
                deleted.append(key)
        return sorted(inserted), sorted(deleted), skipped

    def edge_array(self):
        return np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2)


class TestMutableGraphProperties:
    """The sorted key array plus its per-tick overlay apply events
    exactly as the tuple set did."""

    @common_settings
    @given(st.data(), random_graphs(min_nodes=3, max_nodes=12))
    def test_matches_the_set_reference(self, data, g):
        n, edges = g
        graph = Graph.from_edges(n, edges)
        mutable, reference = MutableGraph(graph), _SetMutableGraph(graph)
        ticks = data.draw(event_ticks(n))
        # One tick that inserts then deletes an absent edge and deletes
        # then re-inserts a present one.
        absent = next(((u, v) for u in range(n) for v in range(u + 1, n)
                       if not graph.has_edge(u, v)), None)
        u, v = graph.edge_list()[0].tolist()
        pinned = [StreamEvent("delete", 0, v, u), StreamEvent("insert", 0, u, v)]
        if absent is not None:
            pinned += [StreamEvent("insert", 0, *absent),
                       StreamEvent("delete", 0, *absent[::-1])]
        for tick, events in enumerate([pinned] + ticks):
            delta = mutable.apply(events, tick)
            inserted, deleted, skipped = reference.apply(events)
            assert delta.inserted.tolist() == [list(e) for e in inserted]
            assert delta.deleted.tolist() == [list(e) for e in deleted]
            assert delta.skipped == skipped + sum(
                e.kind == "drift" for e in events)  # featureless graph
            want = reference.edge_array()
            assert np.array_equal(mutable.edge_array(), want)
            assert mutable.edge_array().dtype == np.int64
            assert mutable.num_edges == mutable.snapshot().num_edges
            assert mutable.num_edges == want.shape[0]
            for a in range(n):
                for b in range(n):
                    assert mutable.has_edge(a, b) == (
                        (min(a, b), max(a, b)) in reference.edges)


class MutableGraphMachine(RuleBasedStateMachine):
    """``MutableGraph`` against a Python edge set and feature array:
    after every tick its snapshot is ``Graph.from_edges`` over the
    reference, array for array, and its queries agree with it."""

    @initialize(n=st.integers(2, 12), seed=st.integers(0, 2**31 - 1),
                dim=st.integers(0, 3))
    def build(self, n, seed, dim):
        rng = np.random.default_rng(seed)
        features = (rng.standard_normal((n, dim)).astype(np.float32)
                    if dim else None)
        graph = Graph.from_edges(
            n, rng.integers(0, n, (int(rng.integers(0, 2 * n + 1)), 2)),
            features=features)
        self.n, self.tick = n, 0
        self.mutable = MutableGraph(graph)
        self.edges = {tuple(e) for e in graph.edge_list().tolist()}
        self.features = None if features is None else features.copy()

    @rule(data=st.data())
    def apply_tick(self, data):
        node = st.integers(0, self.n - 1)
        event = st.one_of(
            st.tuples(st.sampled_from(["insert", "delete"]),
                      st.tuples(node, node).filter(lambda e: e[0] != e[1])),
            st.tuples(st.just("drift"), node))
        drawn = data.draw(st.lists(event, max_size=8))
        events = [StreamEvent(kind, self.tick, *target) if kind != "drift"
                  else StreamEvent(kind, self.tick, target, scale=0.5)
                  for kind, target in drawn]
        self.mutable.apply(events, self.tick)
        self.tick += 1
        for e in events:
            if e.kind == "drift":
                if self.features is not None:
                    self.features[e.u] += np.float32(e.scale)
            elif e.kind == "insert":
                self.edges.add(e.edge)
            else:
                self.edges.discard(e.edge)

    @rule(data=st.data())
    def delete_a_present_edge(self, data):
        if self.edges:
            u, v = data.draw(st.sampled_from(sorted(self.edges)))
            self.mutable.apply([StreamEvent("delete", self.tick, v, u)],
                               self.tick)
            self.tick += 1
            self.edges.discard((u, v))

    @rule(bad=st.integers(0, 3))
    def out_of_range_tick_changes_nothing(self, bad):
        before = self.mutable.fingerprint()
        with pytest.raises(StreamError):
            self.mutable.apply([StreamEvent("insert", self.tick, 0, 1),
                                StreamEvent("delete", self.tick, 1,
                                            self.n + bad)], self.tick)
        assert self.mutable.fingerprint() == before

    @invariant()
    def snapshot_is_from_edges_over_the_reference(self):
        edges = np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2)
        want = Graph.from_edges(self.n, edges, features=self.features)
        got = self.mutable.snapshot()
        assert got.indptr.dtype == got.indices.dtype == np.int64
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.weights is None
        if self.features is None:
            assert got.features is None
        else:
            assert got.features.tobytes() == want.features.tobytes()

    @invariant()
    def queries_agree_with_the_reference(self):
        assert self.mutable.num_edges == len(self.edges)
        for u in range(-1, self.n + 1):
            for v in range(-1, self.n + 1):
                assert self.mutable.has_edge(u, v) == (
                    (min(u, v), max(u, v)) in self.edges)
        assert self.mutable.fingerprint() == self.mutable.fingerprint()


TestMutableGraphMachine = MutableGraphMachine.TestCase
TestMutableGraphMachine.settings = settings(
    max_examples=30, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


def _reference_serve_digest(report):
    """The per-outcome numpy packing ``ServeReport.digest`` replaced."""
    h = hashlib.sha256()
    for o in report.outcomes:
        h.update(np.int64([o.index, o.shard, STATUSES.index(o.status),
                           int(o.rerouted)]).tobytes())
        h.update(np.float64([o.arrival_s, o.dispatch_s,
                             o.completion_s]).tobytes())
        if o.score is not None:
            h.update(np.float64([o.score]).tobytes())
        if o.topk_nodes is not None:
            h.update(np.asarray(o.topk_nodes, dtype=np.int64).tobytes())
            h.update(np.asarray(o.topk_scores, dtype=np.float64).tobytes())
    h.update(np.int64([report.comm.feature_bytes,
                       report.comm.structure_bytes,
                       report.comm.sync_bytes]).tobytes())
    return h.hexdigest()


_finite = st.floats(allow_nan=False, width=64)


@st.composite
def serve_outcomes(draw, index):
    """A finished outcome: served pair or top-k, shed, or score-less."""
    kind = draw(st.sampled_from(["score", "topk", "shed", "no_score"]))
    outcome = RequestOutcome(
        index=index,
        request=(TopKRequest(draw(st.integers(0, 9)), 3) if kind == "topk"
                 else ScoreRequest(0, 1)),
        status="shed" if kind == "shed" else "ok",
        shard=draw(st.integers(-1, 7)), rerouted=draw(st.booleans()),
        arrival_s=draw(_finite), dispatch_s=draw(_finite),
        completion_s=draw(_finite))
    if kind == "score":
        outcome.score = draw(st.one_of(_finite, _finite.map(np.float64)))
    elif kind == "topk":
        k = draw(st.integers(0, 4))
        outcome.topk_nodes = np.array(
            draw(st.lists(st.integers(0, 2**40), min_size=k, max_size=k)))
        outcome.topk_scores = np.array(
            draw(st.lists(_finite, min_size=k, max_size=k)))
    return outcome


class TestServeDigestProperties:
    @common_settings
    @given(st.data(), st.integers(0, 12),
           st.tuples(*[st.integers(0, 2**40)] * 3))
    def test_equals_per_outcome_numpy_packing(self, data, count, comm):
        outcomes = [data.draw(serve_outcomes(i)) for i in range(count)]
        report = ServeReport(outcomes, comm=CommRecord(*comm))
        assert report.digest() == _reference_serve_digest(report)


@st.composite
def event_ticks(draw, num_nodes):
    """A few ticks of arbitrary insert/delete/drift events; the same
    edge may be inserted and deleted (in either order) within a tick."""
    node = st.integers(0, num_nodes - 1)
    edge = st.tuples(node, node).filter(lambda e: e[0] != e[1])
    event = st.one_of(
        st.tuples(st.sampled_from(["insert", "delete"]), edge),
        st.tuples(st.just("drift"), node))
    ticks = draw(st.lists(st.lists(event, max_size=8), min_size=1,
                          max_size=5))
    return [[StreamEvent(kind, t, *target) if kind != "drift"
             else StreamEvent(kind, t, target, scale=0.25)
             for kind, target in events]
            for t, events in enumerate(ticks)]


def _owner_by_edge(layout):
    return {tuple(e): int(p) for e, p in zip(
        layout.full.edge_list().tolist(), layout.edge_cover())}


class TestShardedStateProperties:
    """Arbitrary delta sequences keep the carried layout equal to a
    from-scratch placement on the carried ownership."""

    @common_settings
    @given(st.data(), random_graphs(min_nodes=8, max_nodes=20),
           st.sampled_from([PartitionSpec("metis"),
                            PartitionSpec("metis", mirror=True),
                            PartitionSpec("vertex_cut")]),
           st.integers(0, 2**31 - 1))
    def test_layout_tracks_arbitrary_deltas(self, data, g, spec, seed):
        n, edges = g
        features = np.random.default_rng(seed).standard_normal((n, 3))
        mutable = MutableGraph(Graph.from_edges(n, edges,
                                                features=features))
        sharded = ShardedState(mutable.snapshot(), spec, 3, seed)
        masters = sharded.layout.assignment.copy()
        for tick, events in enumerate(data.draw(event_ticks(n))):
            before = _owner_by_edge(sharded.layout)
            delta = mutable.apply(events, tick)
            snap = mutable.snapshot()
            sharded.apply_delta(delta, snap)
            layout = sharded.layout

            # Masters never move between rebalances.
            assert np.array_equal(layout.assignment, masters)
            # The edge cover is total and disjoint, and a surviving
            # edge keeps its owner (inserted ones get theirs online).
            cover = _owner_by_edge(layout)
            assert list(cover) == [tuple(e) for e in
                                   snap.edge_list().tolist()]
            inserted = {tuple(e) for e in delta.inserted.tolist()}
            assert all(cover[e] == before[e]
                       for e in cover if e not in inserted)
            # The layout is the from-scratch placement on the carried
            # ownership, array for array.
            if spec.edge_partitioned:
                for part, graph in enumerate(layout.parts):
                    assert np.array_equal(graph.edge_list(),
                                          layout.owned_edges(part))
                scratch = PartitionedGraph.assemble(
                    snap, masters, 3, True, layout.edge_assignment)
            else:
                scratch = PartitionedGraph.build(snap, masters, 3,
                                                 spec.mirror)
            for part in range(3):
                assert np.array_equal(layout.parts[part].indptr,
                                      scratch.parts[part].indptr)
                assert np.array_equal(layout.parts[part].indices,
                                      scratch.parts[part].indices)
                assert np.array_equal(layout.stored_nodes(part),
                                      scratch.stored_nodes(part))
            assert np.array_equal(layout.replica_mask(),
                                  scratch.replica_mask())
            # Checkpoint round trip.
            clone = ShardedState.from_state_arrays(
                sharded.state_arrays(), snap, spec, 3, seed)
            assert clone.fingerprint() == sharded.fingerprint()


class TestAutogradProperties:
    @common_settings
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16),
           st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    def test_addition_commutes(self, xs, ys):
        size = min(len(xs), len(ys))
        a = Tensor(np.array(xs[:size]))
        b = Tensor(np.array(ys[:size]))
        assert np.allclose((a + b).data, (b + a).data)

    @common_settings
    @given(st.integers(1, 30), st.integers(1, 5),
           st.integers(0, 2**31 - 1))
    def test_segment_sum_conserves_mass(self, rows, segments, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, 2))
        seg = rng.integers(0, segments, size=rows)
        out = segment_sum(Tensor(x), seg, segments)
        assert np.allclose(out.data.sum(axis=0), x.sum(axis=0))

    @common_settings
    @given(st.integers(1, 30), st.integers(1, 4),
           st.integers(0, 2**31 - 1))
    def test_segment_softmax_rows_sum_to_one(self, rows, segments, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, 1)) * 5
        seg = rng.integers(0, segments, size=rows)
        out = segment_softmax(Tensor(x), seg, segments)
        sums = np.zeros(segments)
        np.add.at(sums, seg, out.data.ravel())
        occupied = np.bincount(seg, minlength=segments) > 0
        assert np.allclose(sums[occupied], 1.0)

    @common_settings
    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=16),
           st.integers(0, 2**31 - 1))
    def test_bce_nonnegative(self, logits, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=len(logits)).astype(float)
        loss = bce_with_logits(Tensor(np.array(logits)), labels)
        assert loss.item() >= 0.0


class TestMetricProperties:
    @common_settings
    @given(st.integers(1, 50), st.integers(1, 200),
           st.integers(0, 2**31 - 1))
    def test_hits_in_unit_interval(self, n_pos, n_neg, seed):
        rng = np.random.default_rng(seed)
        pos, neg = rng.standard_normal(n_pos), rng.standard_normal(n_neg)
        h = hits_at_k(pos, neg, k=min(n_neg, 20))
        assert 0.0 <= h <= 1.0

    @common_settings
    @given(st.integers(1, 50), st.integers(1, 50),
           st.integers(0, 2**31 - 1))
    def test_auc_complement_symmetry(self, n_pos, n_neg, seed):
        rng = np.random.default_rng(seed)
        pos, neg = rng.standard_normal(n_pos), rng.standard_normal(n_neg)
        assert auc(pos, neg) == pytest.approx(1.0 - auc(neg, pos))

    @common_settings
    @given(st.integers(1, 50), st.integers(1, 50),
           st.floats(0.1, 10.0), st.integers(0, 2**31 - 1))
    def test_auc_invariant_to_monotone_transform(self, n_pos, n_neg,
                                                 scale, seed):
        rng = np.random.default_rng(seed)
        pos, neg = rng.standard_normal(n_pos), rng.standard_normal(n_neg)
        assert auc(pos, neg) == pytest.approx(auc(pos * scale, neg * scale))
