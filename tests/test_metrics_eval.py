"""Hits@K / AUC metrics and the Evaluator protocol."""

import tracemalloc

import numpy as np
import pytest

from repro.eval import (
    EvalResult,
    Evaluator,
    accuracy_at_threshold,
    auc,
    hits_at_k,
    score_pairs,
)
from repro.graph import split_edges, synthetic_lp_graph
from repro.nn import build_model

from conftest import recorded_nodes, taped_forward


class TestHitsAtK:
    def test_all_positives_above(self):
        pos = np.array([10.0, 9.0])
        neg = np.arange(200.0) / 100.0
        assert hits_at_k(pos, neg, k=100) == 1.0

    def test_none_above(self):
        pos = np.array([-1.0])
        neg = np.arange(200.0)
        assert hits_at_k(pos, neg, k=100) == 0.0

    def test_threshold_is_kth_highest(self):
        neg = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        pos = np.array([3.5, 4.5])
        # k=2: threshold = 4.0; only 4.5 beats it strictly.
        assert hits_at_k(pos, neg, k=2) == 0.5

    def test_strictly_greater(self):
        neg = np.array([1.0, 2.0])
        pos = np.array([2.0])
        assert hits_at_k(pos, neg, k=1) == 0.0

    def test_fewer_negatives_than_k(self):
        assert hits_at_k(np.array([0.0]), np.array([5.0]), k=100) == 1.0

    def test_empty_positives_rejected(self):
        with pytest.raises(ValueError):
            hits_at_k(np.array([]), np.array([1.0]))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            hits_at_k(np.array([1.0]), np.array([1.0]), k=0)

    def test_monotone_in_k(self, rng):
        pos = rng.standard_normal(100)
        neg = rng.standard_normal(500)
        values = [hits_at_k(pos, neg, k=k) for k in (10, 50, 100, 400)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestAUC:
    def test_perfect_separation(self):
        assert auc(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0

    def test_inverted(self):
        assert auc(np.array([0.0]), np.array([1.0])) == 0.0

    def test_random_is_half(self, rng):
        pos = rng.standard_normal(3000)
        neg = rng.standard_normal(3000)
        assert auc(pos, neg) == pytest.approx(0.5, abs=0.03)

    def test_ties_half_credit(self):
        assert auc(np.array([1.0]), np.array([1.0])) == 0.5

    def test_matches_sklearn_formula(self, rng):
        # Cross-check against a brute-force pairwise computation.
        pos = rng.standard_normal(50)
        neg = rng.standard_normal(80)
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert auc(pos, neg) == pytest.approx(wins / (50 * 80))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc(np.array([]), np.array([1.0]))


class TestAccuracyAtThreshold:
    def test_balanced(self):
        acc = accuracy_at_threshold(np.array([1.0, -1.0]),
                                    np.array([-1.0, -2.0]))
        assert acc == 0.75


class TestEvaluator:
    @pytest.fixture
    def model(self, small_split):
        return build_model("sage", small_split.train_graph.feature_dim,
                           16, num_layers=2, seed=0)

    def test_score_pairs_shape(self, model, small_split, rng):
        pairs = small_split.val_pos[:7]
        scores = score_pairs(model, small_split.train_graph, pairs,
                             fanouts=[5, 3], rng=rng)
        assert scores.shape == (7,)
        assert np.all(np.isfinite(scores))

    def test_score_pairs_batching_consistent(self, model, small_split):
        # float64, where the allowance below is rounding.
        model.astype(np.float64)
        pairs = small_split.val_pos[:10]
        a = score_pairs(model, small_split.train_graph, pairs,
                        fanouts=[-1, -1],
                        rng=np.random.default_rng(0), batch_size=3)
        b = score_pairs(model, small_split.train_graph, pairs,
                        fanouts=[-1, -1],
                        rng=np.random.default_rng(0), batch_size=100)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_validate_and_test(self, model, small_split, rng):
        ev = Evaluator(small_split, fanouts=[5, 3], k=20, rng=rng)
        val = ev.validate(model)
        test = ev.test(model)
        assert isinstance(val, EvalResult) and isinstance(test, EvalResult)
        assert 0.0 <= val.hits <= 1.0
        assert 0.0 <= test.auc <= 1.0
        assert val.k == 20

    def test_score_pairs_records_no_tape_and_keeps_the_bits(
            self, model, small_split):
        pairs = small_split.val_pos[:20]

        def scores():
            return score_pairs(model, small_split.train_graph, pairs,
                               fanouts=[5, 3],
                               rng=np.random.default_rng(2), batch_size=8)

        with recorded_nodes() as nodes:
            free = scores()
        assert nodes == [0]
        with taped_forward(), recorded_nodes() as nodes:
            taped = scores()
        assert nodes[0] > 0
        assert free.tobytes() == taped.tobytes()


def test_validate_peak_memory_stays_under_the_tape_free_bound():
    """The taped forward kept every activation of a scoring batch alive
    (48 MB traced at this size); tape-free it stays near 11 MB."""
    graph = synthetic_lp_graph(4000, 20000, 64, 8,
                               rng=np.random.default_rng(0))
    split = split_edges(graph, rng=np.random.default_rng(101))
    model = build_model("sage", 64, 64, num_layers=2, seed=0)
    evaluator = Evaluator(split, fanouts=(10, 5),
                          rng=np.random.default_rng(7))
    tracemalloc.start()
    try:
        evaluator.validate(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"
