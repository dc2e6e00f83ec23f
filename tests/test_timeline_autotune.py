"""Timeline model and alpha auto-tuner."""

import numpy as np
import pytest

from repro import TrainConfig
from repro.core import run_framework
from repro.core import predicted_saving, suggest_alpha
from repro.distributed import (
    CommRecord,
    EpochTimeline,
    HardwareModel,
    estimate_epoch_time,
    timeline_from_result,
)
from repro.graph import synthetic_lp_graph, split_edges
from repro.partition import partition_graph


@pytest.fixture(scope="module")
def setting():
    rng = np.random.default_rng(4)
    graph = synthetic_lp_graph(600, 2600, feature_dim=24,
                               num_communities=8, rng=rng)
    split = split_edges(graph, rng=rng)
    pg = partition_graph(split.train_graph, 4, "metis",
                         rng=np.random.default_rng(0), mirror=True)
    return split, pg


class TestEstimateEpochTime:
    def test_breakdown_components(self):
        comm = CommRecord(feature_bytes=10 * 2**20,
                          structure_bytes=2 * 2**20,
                          sync_bytes=2**20)
        t = estimate_epoch_time(comm, num_workers=4,
                                edges_processed=1e7, rounds=20)
        assert t.compute_s > 0 and t.network_s > 0 and t.sync_s > 0
        assert t.total_s == pytest.approx(
            t.compute_s + t.network_s + t.sync_s)
        assert set(t.breakdown()) == {"compute_s", "network_s",
                                      "sync_s", "total_s"}

    def test_zero_comm_means_zero_network(self):
        t = estimate_epoch_time(CommRecord(), num_workers=2,
                                edges_processed=1e6, rounds=5)
        assert t.network_s == 0.0

    def test_more_bandwidth_less_network_time(self):
        comm = CommRecord(feature_bytes=100 * 2**20)
        slow = estimate_epoch_time(comm, 2, 1e6, 5,
                                   hardware=HardwareModel(bandwidth_gbps=1))
        fast = estimate_epoch_time(comm, 2, 1e6, 5,
                                   hardware=HardwareModel(bandwidth_gbps=100))
        assert fast.network_s < slow.network_s

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            estimate_epoch_time(CommRecord(), 0, 1e6, 1)


class TestTimelineFromResult:
    def test_uses_recorded_stats(self, setting):
        split, pg = setting
        cfg = TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                          fanouts=(5, 3), batch_size=64, epochs=2,
                          hits_k=20, eval_every=3, seed=0)
        result = run_framework("splpg", split, 4, cfg,
                               rng=np.random.default_rng(1))
        assert result.history[0].rounds > 0
        assert result.history[0].mfg_edges > 0
        timeline = timeline_from_result(result)
        assert isinstance(timeline, EpochTimeline)
        assert timeline.total_s > 0

    def test_splpg_network_cheaper_than_plus(self, setting):
        split, pg = setting
        cfg = TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                          fanouts=(5, 3), batch_size=64, epochs=2,
                          hits_k=20, eval_every=3, seed=0)
        splpg = timeline_from_result(run_framework(
            "splpg", split, 4, cfg, rng=np.random.default_rng(1)))
        plus = timeline_from_result(run_framework(
            "splpg_plus", split, 4, cfg, rng=np.random.default_rng(1)))
        assert splpg.network_s < plus.network_s


class TestAutotune:
    def test_monotone_saving(self, setting):
        _, pg = setting
        savings = [predicted_saving(pg, a, (10, 5), 128)
                   for a in (0.05, 0.2, 0.6)]
        assert savings[0] > savings[1] > savings[2]

    def test_hits_target(self, setting):
        _, pg = setting
        s = suggest_alpha(pg, (10, 5), 128, target_saving=0.7)
        assert s.predicted_saving == pytest.approx(0.7, abs=0.02)
        assert 0.01 <= s.alpha <= 1.0
        assert s.splpg_gb < s.full_sharing_gb

    def test_higher_target_smaller_alpha(self, setting):
        _, pg = setting
        mild = suggest_alpha(pg, (10, 5), 128, target_saving=0.5)
        aggressive = suggest_alpha(pg, (10, 5), 128, target_saving=0.85)
        assert aggressive.alpha < mild.alpha

    def test_easy_target_returns_upper_bound(self, setting):
        _, pg = setting
        s = suggest_alpha(pg, (10, 5), 128, target_saving=0.01)
        assert s.alpha == 1.0 or s.predicted_saving >= 0.01

    def test_invalid_target(self, setting):
        _, pg = setting
        with pytest.raises(ValueError):
            suggest_alpha(pg, (10, 5), 128, target_saving=1.5)
