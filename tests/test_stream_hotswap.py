"""Serving-path version consistency under mid-workload hot swaps.

Regression suite for the torn-batch bug class: a request admitted
before a swap point must score *entirely* against the pre-swap
version — even when its micro-batch flushes after the swap — and a
flush whose batch straddles the swap must split into
version-homogeneous groups rather than mixing embedding tables.
"""

import numpy as np
import pytest

from repro.graph import Graph, synthetic_lp_graph
from repro.nn.models import MLPPredictor, build_model
from repro.serve import (
    OpenLoopWorkload,
    ServingCluster,
    artifact_from_table,
    synthetic_requests,
)
from repro.stream import (
    MutableGraph,
    Reembedder,
    RolloutGate,
    StreamEvent,
    probe_pairs,
)
from repro.stream.rollout import score_pairs

from conftest import recorded_nodes, taped_forward

NODES, DIM = 40, 6
SWAP_SEQ = 12
NUM_REQUESTS = 30


def _artifacts():
    """Two layout-compatible artifacts with genuinely different tables."""
    graph = synthetic_lp_graph(NODES, 120, feature_dim=DIM,
                               rng=np.random.default_rng(4))
    model = build_model("sage", DIM, hidden_dim=8, num_layers=2, seed=4)
    assignment = np.arange(NODES, dtype=np.int64) % 3
    reembedder = Reembedder(model, batch_size=8)
    reembedder.full_refresh(graph)
    old = reembedder.make_artifact(graph, assignment, 3)
    mutable = MutableGraph(graph)
    delta = mutable.apply(
        [StreamEvent("drift", 0, u=n, scale=0.8) for n in range(8)], 0)
    snap = mutable.snapshot()
    reembedder.frontier_refresh(snap, delta.touched_nodes())
    new = reembedder.make_artifact(snap, assignment, 3)
    assert old.model_version != new.model_version
    assert not np.array_equal(old.embedding_table(),
                              new.embedding_table())
    return old, new


def _workload(seed=4):
    requests = synthetic_requests(NUM_REQUESTS, NODES, seed=seed,
                                  topk_fraction=0.0)
    return OpenLoopWorkload(requests, rate_rps=5000.0, seed=seed + 13)


def _serve(artifact, swaps=None, register=None, backend="serial"):
    cluster = ServingCluster(artifact, backend=backend, max_batch=5,
                             max_delay_s=5e-3, max_queue=64)
    if register is not None:
        cluster.register_version(register)
    with cluster:
        report = cluster.serve(_workload(), swaps=swaps)
    return cluster, report


class TestAdmissionTimePinning:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_pre_swap_requests_score_against_old_version(self, backend):
        old, new = _artifacts()
        _, baseline_old = _serve(old, backend=backend)
        _, baseline_new = _serve(new, backend=backend)
        cluster, swapped = _serve(
            old, swaps=[(SWAP_SEQ, new.model_version)], register=new,
            backend=backend)
        for outcome in swapped.outcomes:
            if outcome.status != "ok":
                continue
            baseline = (baseline_old if outcome.index < SWAP_SEQ
                        else baseline_new)
            expected = baseline.outcomes[outcome.index].score
            assert outcome.score == expected, (
                f"request {outcome.index} scored against the wrong "
                f"version (pinned "
                f"{cluster.pinned_version(outcome.index)[:8]})")

    def test_pinning_is_recorded_per_request(self):
        old, new = _artifacts()
        cluster, report = _serve(old,
                                 swaps=[(SWAP_SEQ, new.model_version)],
                                 register=new)
        for outcome in report.outcomes:
            pinned = cluster.pinned_version(outcome.index)
            expected = (old.model_version if outcome.index < SWAP_SEQ
                        else new.model_version)
            assert pinned == expected

    def test_no_swap_is_byte_identical_to_legacy_path(self):
        """A swap-free serve must not be perturbed by the pinning
        machinery at all."""
        old, _ = _artifacts()
        _, a = _serve(old)
        _, b = _serve(old, swaps=[])
        assert a.digest() == b.digest()


class TestRetire:
    def test_retired_version_is_gone(self):
        old, new = _artifacts()
        cluster = ServingCluster(old)
        cluster.register_version(new)
        cluster.activate(new.model_version)
        cluster.retire(old.model_version)
        assert list(cluster._versions) == [new.model_version]
        with pytest.raises(ValueError, match="not a registered"):
            cluster.serve(_workload(), swaps=[(1, old.model_version)])
        with pytest.raises(ValueError, match="unknown model_version"):
            cluster.activate(old.model_version)

    def test_active_and_unknown_versions_refuse(self):
        old, new = _artifacts()
        cluster = ServingCluster(old)
        cluster.register_version(new)
        with pytest.raises(ValueError, match="is active"):
            cluster.retire(old.model_version)
        cluster.retire(new.model_version)
        with pytest.raises(ValueError, match="unknown model_version"):
            cluster.retire(new.model_version)
        assert list(cluster._versions) == [old.model_version]


def test_rollout_scores_record_no_tape_and_keep_the_bits():
    old, _ = _artifacts()
    pairs = np.array([[0, 1], [2, 30], [7, 7], [39, 4]], dtype=np.int64)
    with recorded_nodes() as nodes:
        free = score_pairs(old, pairs)
    assert nodes == [0]
    with taped_forward():
        taped = score_pairs(old, pairs)
    assert free.tobytes() == taped.tobytes()


class TestTornBatches:
    def test_straddling_flush_splits_into_homogeneous_groups(self,
                                                             monkeypatch):
        old, new = _artifacts()
        flushes = []
        original = ServingCluster._execute

        def spy(self, outcomes, batch_flushes):
            flushes.extend(batch_flushes)
            return original(self, outcomes, batch_flushes)

        monkeypatch.setattr(ServingCluster, "_execute", spy)
        cluster, _ = _serve(old, swaps=[(SWAP_SEQ, new.model_version)],
                            register=new)
        mixed = [f for f in flushes
                 if {cluster.pinned_version(i) for i in f.seqs}
                 == {old.model_version, new.model_version}]
        assert mixed, ("no flush straddled the swap point; regression "
                       "coverage needs one — tune SWAP_SEQ/max_batch")

    def test_swap_target_must_be_registered(self):
        old, new = _artifacts()
        cluster = ServingCluster(old, max_batch=4)
        with pytest.raises(ValueError):
            cluster.serve(_workload(),
                          swaps=[(SWAP_SEQ, new.model_version)])

    def test_incompatible_layout_rejected_at_registration(self):
        old, _ = _artifacts()
        other = synthetic_lp_graph(NODES, 120, feature_dim=DIM,
                                   rng=np.random.default_rng(9))
        model = build_model("sage", DIM, hidden_dim=8, num_layers=2,
                            seed=9)
        reembedder = Reembedder(model, batch_size=8)
        reembedder.full_refresh(other)
        moved = reembedder.make_artifact(
            other, (np.arange(NODES, dtype=np.int64) + 1) % 3, 3)
        cluster = ServingCluster(old, max_batch=4)
        with pytest.raises(ValueError):
            cluster.register_version(moved)

    def test_activate_switches_default_version(self):
        old, new = _artifacts()
        cluster = ServingCluster(old, max_batch=4)
        cluster.register_version(new)
        cluster.activate(new.model_version)
        assert cluster.active_version == new.model_version
        assert cluster.artifact is new
        with pytest.raises(ValueError):
            cluster.activate("not-registered")


class TestGateDigest:
    """The gate's digest check covers exactly the bytes the cluster
    serves."""

    def _promised(self):
        graph = synthetic_lp_graph(50, 150, feature_dim=DIM,
                                   rng=np.random.default_rng(6))
        table = np.random.default_rng(7).standard_normal((50, 8))
        state = MLPPredictor(8, num_layers=2,
                             rng=np.random.default_rng(8)).state_dict()
        artifact = artifact_from_table(table.copy(), "v1", "mlp", state,
                                       np.arange(50) % 2, 2)
        return artifact, artifact.checksum(), graph

    def test_intact_candidate_is_accepted(self):
        artifact, promised, graph = self._promised()
        decision = RolloutGate().evaluate(artifact, promised, None, graph,
                                          0, 0)
        assert decision.accepted and decision.reason == "accepted"

    @pytest.mark.parametrize("row", [0, 3, 49])
    def test_one_flipped_served_bit_is_a_digest_mismatch(self, row):
        artifact, promised, graph = self._promised()
        table = artifact.embedding_table()
        table.flags.writeable = True
        table.view(np.uint64)[row, 5] ^= 1 << 17
        assert artifact.checksum() != promised
        decision = RolloutGate().evaluate(artifact, promised, None, graph,
                                          0, 0)
        assert not decision.accepted
        assert decision.reason.startswith("digest mismatch")


def _set_based_probe_pairs(graph, seed, tick, num_pairs=32):
    """The gate probe before it queried ``graph.has_edge``: negatives
    rejected against a Python set of every edge.  Its oracle."""
    rng = np.random.default_rng((seed, tick, 211))
    edges = graph.edge_list()
    take = min(num_pairs, edges.shape[0])
    pos = edges[rng.choice(edges.shape[0], size=take, replace=False)]
    present = {(int(u), int(v)) for u, v in edges}
    neg = []
    attempts = 0
    while len(neg) < take and attempts < take * 50:
        attempts += 1
        u = int(rng.integers(0, graph.num_nodes))
        v = int(rng.integers(0, graph.num_nodes - 1))
        if v >= u:
            v += 1
        if (min(u, v), max(u, v)) not in present:
            neg.append((u, v))
    return pos, np.asarray(neg, dtype=np.int64).reshape(-1, 2)


class TestProbePairs:
    @staticmethod
    def _near_complete():
        """10 nodes, all but 3 of the 45 pairs present: most negative
        draws are rejected."""
        pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
        return Graph.from_edges(10, pairs[3:])

    def test_equals_the_set_based_probe(self):
        """Same RNG draws, same pairs."""
        graphs = [synthetic_lp_graph(NODES, 120, feature_dim=DIM,
                                     rng=np.random.default_rng(4)),
                  self._near_complete()]
        for graph in graphs:
            for seed, tick in [(0, 0), (3, 1), (7, 5)]:
                got = probe_pairs(graph, seed, tick)
                want = _set_based_probe_pairs(graph, seed, tick)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
