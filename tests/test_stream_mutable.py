"""MutableGraph: delta application, snapshots, durable state."""

import hashlib

import numpy as np
import pytest

from repro.graph import Graph
from repro.stream import ArrivalPlan, MutableGraph, StreamEvent
from repro.stream.errors import StreamError


def _featured(num_nodes=8, dim=3):
    edges = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]
    features = np.arange(num_nodes * dim,
                         dtype=np.float32).reshape(num_nodes, dim)
    return Graph.from_edges(num_nodes, edges, features=features)


class TestApply:
    def test_insert_delete_drift(self):
        mutable = MutableGraph(_featured())
        delta = mutable.apply([
            StreamEvent("insert", 0, u=5, v=7),
            StreamEvent("delete", 0, u=0, v=1),
            StreamEvent("drift", 0, u=2, scale=0.5),
        ], tick=0)
        assert delta.inserted.tolist() == [[5, 7]]
        assert delta.deleted.tolist() == [[0, 1]]
        assert delta.drifted.tolist() == [2]
        assert delta.skipped == 0
        snap = mutable.snapshot()
        assert snap.num_edges == 5  # 5 - 1 + 1
        assert np.allclose(snap.features[2],
                           _featured().features[2] + 0.5)

    def test_duplicate_insert_and_missing_delete_skip(self):
        mutable = MutableGraph(_featured())
        delta = mutable.apply([
            StreamEvent("insert", 0, u=0, v=1),   # already present
            StreamEvent("delete", 0, u=6, v=7),   # never existed
        ], tick=0)
        assert delta.is_empty()
        assert delta.skipped == 2

    def test_touched_nodes_cover_all_event_endpoints(self):
        mutable = MutableGraph(_featured())
        delta = mutable.apply([
            StreamEvent("insert", 0, u=5, v=7),
            StreamEvent("drift", 0, u=1, scale=0.1),
        ], tick=0)
        assert delta.touched_nodes().tolist() == [1, 5, 7]

    def test_snapshot_is_isolated(self):
        mutable = MutableGraph(_featured())
        before = mutable.snapshot()
        mutable.apply([StreamEvent("drift", 0, u=0, scale=1.0)], tick=0)
        assert before.features[0, 0] == _featured().features[0, 0]

    def test_fingerprint_tracks_every_mutation_kind(self):
        mutable = MutableGraph(_featured())
        prints = {mutable.fingerprint()}
        for event in (StreamEvent("insert", 0, u=5, v=7),
                      StreamEvent("delete", 0, u=0, v=1),
                      StreamEvent("drift", 0, u=3, scale=0.2)):
            mutable.apply([event], tick=0)
            prints.add(mutable.fingerprint())
        assert len(prints) == 4

    def test_replaying_plan_reproduces_fingerprint(self):
        plan = ArrivalPlan.generate(8, ticks=4, seed=3)
        runs = []
        for _ in range(2):
            mutable = MutableGraph(_featured())
            for tick in range(4):
                mutable.apply(plan.events_at(tick), tick)
            runs.append(mutable.fingerprint())
        assert runs[0] == runs[1]

    def test_edge_array_follows_every_mutating_apply(self):
        """The cached canonical array equals the sorted live edge set
        after each tick, including an edge inserted and deleted (and
        one deleted and re-inserted) within one tick."""
        mutable = MutableGraph(_featured())
        ticks = [
            [StreamEvent("insert", 0, u=7, v=5),
             StreamEvent("delete", 0, u=1, v=0)],
            [StreamEvent("insert", 1, u=2, v=6),
             StreamEvent("delete", 1, u=2, v=6),
             StreamEvent("delete", 1, u=3, v=4),
             StreamEvent("insert", 1, u=4, v=3)],
            [StreamEvent("drift", 2, u=1, scale=0.3)],
        ]
        live = [[1, 2], [2, 3], [3, 4], [4, 5], [5, 7]]
        for tick, events in enumerate(ticks):
            mutable.apply(events, tick)
            assert mutable.edge_array().tolist() == live
            snap = mutable.snapshot()
            np.testing.assert_array_equal(snap.edge_list(),
                                          mutable.edge_array())
        mutable.edge_array()[:] = 0
        assert mutable.edge_array().tolist() == live


    @pytest.mark.parametrize("kind", ["insert", "delete"])
    def test_out_of_range_endpoint_raises_before_any_change(self, kind):
        """An endpoint ``>= num_nodes`` once decoded onto another edge
        (key ``0 * 5 + 5`` is the row ``[1, 0]``); now the whole tick
        is refused, the events before the bad one included."""
        mutable = MutableGraph(Graph.from_edges(5, [[0, 1], [1, 2]]))
        edges, print_before = mutable.edge_array(), mutable.fingerprint()
        with pytest.raises(StreamError, match=rf"{kind} event \(0, 5\)"):
            mutable.apply([StreamEvent("insert", 0, u=2, v=3),
                           StreamEvent(kind, 0, u=0, v=5)], tick=0)
        assert np.array_equal(mutable.edge_array(), edges)
        assert mutable.fingerprint() == print_before
        assert mutable.num_edges == mutable.snapshot().num_edges == 2

    def test_out_of_range_drift_is_skipped(self):
        mutable = MutableGraph(_featured())
        delta = mutable.apply([StreamEvent("drift", 0, u=8, scale=1.0)],
                              tick=0)
        assert delta.skipped == 1 and delta.drifted.size == 0


class TestState:
    def test_state_arrays_round_trip(self):
        mutable = MutableGraph(_featured())
        mutable.apply([StreamEvent("insert", 0, u=5, v=7),
                       StreamEvent("drift", 0, u=2, scale=-0.5)], tick=0)
        clone = MutableGraph.from_state_arrays(mutable.state_arrays())
        assert clone.fingerprint() == mutable.fingerprint()
        a, b = clone.snapshot(), mutable.snapshot()
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.features, b.features)

    def test_featureless_drift_is_skipped_not_applied(self):
        bare = Graph.from_edges(4, [[0, 1], [1, 2]])
        delta = MutableGraph(bare).apply(
            [StreamEvent("drift", 0, u=0, scale=1.0)], tick=0)
        assert delta.skipped == 1
        assert delta.drifted.size == 0


def _copying_fingerprint(mutable):
    """:meth:`MutableGraph.fingerprint` as it read before hashing
    through the buffer protocol: every array copied by ``tobytes``."""
    digest = hashlib.sha256()
    digest.update(np.int64([mutable.num_nodes]).tobytes())
    digest.update(mutable.edge_array().tobytes())
    if mutable._features is not None:
        digest.update(str(mutable._features.shape).encode("ascii"))
        digest.update(np.ascontiguousarray(mutable._features).tobytes())
    return digest.hexdigest()


class TestFingerprintOracle:
    def test_equals_the_copying_form(self):
        mutable = MutableGraph(_featured())
        assert mutable.fingerprint() == _copying_fingerprint(mutable)
        mutable.apply([StreamEvent("insert", 0, u=5, v=7),
                       StreamEvent("delete", 0, u=0, v=1),
                       StreamEvent("drift", 0, u=2, scale=0.5)], tick=0)
        assert mutable.fingerprint() == _copying_fingerprint(mutable)
        bare = MutableGraph(Graph.from_edges(4, [[0, 1], [1, 2]]))
        assert bare.fingerprint() == _copying_fingerprint(bare)

    @pytest.mark.parametrize("layout", ["fortran", "sliced"])
    def test_non_contiguous_features(self, layout):
        mutable = MutableGraph(_featured())
        before = mutable.fingerprint()
        features = mutable._features
        mutable._features = (
            np.asfortranarray(features) if layout == "fortran"
            else np.repeat(features, 2, axis=1)[:, ::2])
        assert not mutable._features.flags.c_contiguous
        assert mutable.fingerprint() == _copying_fingerprint(mutable)
        assert mutable.fingerprint() == before

    def test_raw_constructor_graph(self):
        """A CSR whose rows list neighbours in descending order (not
        the canonical layout) fingerprints like its canonical twin."""
        canonical = _featured()
        rows = [canonical.indices[a:b][::-1] for a, b in
                zip(canonical.indptr[:-1], canonical.indptr[1:])]
        raw = Graph(canonical.indptr, np.concatenate(rows),
                    features=canonical.features)
        mutable = MutableGraph(raw)
        assert mutable.fingerprint() == _copying_fingerprint(mutable)
        assert mutable.fingerprint() == MutableGraph(canonical).fingerprint()
