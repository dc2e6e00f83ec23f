"""End-to-end integration tests reproducing the paper's key orderings.

These use a slightly larger graph and more epochs than the unit tests,
so they are the slowest part of the suite — but they are the tests that
tie the code back to the paper's claims.
"""

import numpy as np
import pytest

from repro import TrainConfig, split_edges
from repro.core import run_framework
from repro.graph import synthetic_lp_graph


@pytest.fixture(scope="module")
def split():
    rng = np.random.default_rng(42)
    graph = synthetic_lp_graph(num_nodes=500, target_edges=2200,
                               feature_dim=32, num_communities=8,
                               intra_fraction=0.9, rng=rng)
    return split_edges(graph, rng=rng)


@pytest.fixture(scope="module")
def config():
    return TrainConfig(gnn_type="sage", hidden_dim=32, num_layers=2,
                       fanouts=(8, 4), batch_size=128, epochs=8,
                       hits_k=50, eval_every=2, seed=7)


@pytest.fixture(scope="module")
def results(split, config):
    """Train every framework once; reused across assertions."""
    names = ["centralized", "psgd_pa", "random_tma", "splpg_minus_minus",
             "splpg_minus", "splpg", "splpg_plus", "psgd_pa_plus"]
    out = {}
    for name in names:
        out[name] = run_framework(name, split, num_parts=4, config=config,
                                  rng=np.random.default_rng(11))
    return out


class TestAccuracyOrderings:
    def test_data_sharing_beats_pure_local(self, results):
        """Paper Sec III: + variants recover accuracy lost by locality."""
        assert results["splpg_plus"].test.hits > \
            results["splpg_minus_minus"].test.hits
        assert results["psgd_pa_plus"].test.hits > \
            results["psgd_pa"].test.hits

    def test_splpg_close_to_full_sharing(self, results):
        """Sparsified negatives mostly preserve accuracy (Fig 11/12)."""
        assert results["splpg"].test.hits >= \
            0.6 * results["splpg_plus"].test.hits

    def test_splpg_beats_vanilla_baselines(self, results):
        """Fig 10: SpLPG outperforms PSGD-PA and RandomTMA."""
        assert results["splpg"].test.hits > results["psgd_pa"].test.hits
        assert results["splpg"].test.hits > results["random_tma"].test.hits

    def test_centralized_is_upper_envelope(self, results):
        """No distributed variant should beat centralized by much."""
        ceiling = results["centralized"].test.hits * 1.25 + 0.05
        for name, res in results.items():
            assert res.test.hits <= ceiling, name


class TestCommunicationOrderings:
    def test_vanilla_methods_free(self, results):
        for name in ("psgd_pa", "random_tma", "splpg_minus",
                     "splpg_minus_minus"):
            assert results[name].comm_total.graph_data_bytes == 0, name

    def test_splpg_cheaper_than_full_sharing(self, results):
        """Fig 9: sparsification cuts the graph-data transfer."""
        splpg = results["splpg"].graph_data_gb_per_epoch
        plus = results["splpg_plus"].graph_data_gb_per_epoch
        assert splpg < plus
        saving = 1 - splpg / plus
        assert saving > 0.4  # paper reports ~60-85% at alpha=0.15

    def test_splpg_cheaper_than_baseline_plus(self, results):
        """Fig 8: SpLPG beats PSGD-PA+ on communication."""
        assert results["splpg"].graph_data_gb_per_epoch < \
            results["psgd_pa_plus"].graph_data_gb_per_epoch

    def test_sync_traffic_tracked_separately(self, results):
        res = results["psgd_pa"]
        assert res.comm_total.sync_bytes > 0
        assert res.comm_total.graph_data_bytes == 0


class TestTrainingSanity:
    def test_all_losses_decrease(self, results):
        for name, res in results.items():
            losses = [s.mean_loss for s in res.history]
            assert losses[-1] < losses[0] * 1.05, name

    def test_validation_curves_recorded(self, results):
        for res in results.values():
            assert len(res.val_curve()) >= 2

    def test_all_better_than_random_auc(self, results):
        for name, res in results.items():
            # RandomTMA destroys nearly all structure at this scale, so
            # it only has to clear chance; everything else must do
            # clearly better (the paper's Fig. 3 shows the same split).
            floor = 0.5 if name == "random_tma" else 0.55
            assert res.test.auc > floor, name
