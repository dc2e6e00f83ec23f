"""Analytical communication model vs the measured byte ledger."""

import numpy as np
import pytest

from repro import TrainConfig, split_edges
from repro.core import run_framework
from repro.distributed import estimate_epoch_comm
from repro.graph import synthetic_lp_graph
from repro.partition import partition_graph


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(9)
    graph = synthetic_lp_graph(num_nodes=800, target_edges=3600,
                               feature_dim=32, num_communities=8, rng=rng)
    split = split_edges(graph, rng=rng)
    config = TrainConfig(gnn_type="sage", hidden_dim=24, num_layers=2,
                         fanouts=(8, 4), batch_size=128, epochs=2,
                         hits_k=20, eval_every=3, seed=1)
    return split, config


class TestEstimatorStructure:
    def test_none_remote_is_free(self, setup):
        split, config = setup
        pg = partition_graph(split.train_graph, 4, "metis",
                             rng=np.random.default_rng(1), mirror=False)
        est = estimate_epoch_comm(pg, config.fanouts, config.batch_size,
                                  remote="none")
        assert est.graph_data_gb == 0.0

    def test_sparsified_cheaper_than_full(self, setup):
        split, config = setup
        pg = partition_graph(split.train_graph, 4, "metis",
                             rng=np.random.default_rng(1), mirror=True)
        sparse = estimate_epoch_comm(pg, config.fanouts, config.batch_size,
                                     remote="sparsified", alpha=0.15)
        full = estimate_epoch_comm(pg, config.fanouts, config.batch_size,
                                   remote="full",
                                   positive_mode="owned_cover")
        assert sparse.graph_data_gb < full.graph_data_gb

    def test_alpha_monotone(self, setup):
        split, config = setup
        pg = partition_graph(split.train_graph, 4, "metis",
                             rng=np.random.default_rng(1), mirror=True)
        estimates = [
            estimate_epoch_comm(pg, config.fanouts, config.batch_size,
                                remote="sparsified",
                                alpha=a).graph_data_gb
            for a in (0.05, 0.15, 0.4)
        ]
        assert estimates[0] < estimates[1] < estimates[2]

    def test_more_partitions_more_comm(self, setup):
        split, config = setup
        estimates = []
        for p in (2, 8):
            pg = partition_graph(split.train_graph, p, "metis",
                                 rng=np.random.default_rng(1), mirror=True)
            estimates.append(estimate_epoch_comm(
                pg, config.fanouts, config.batch_size,
                remote="sparsified").graph_data_gb)
        assert estimates[0] < estimates[1]


class TestEstimatorAccuracy:
    @pytest.mark.parametrize("framework,remote,mirror,mode", [
        ("splpg", "sparsified", True, "local"),
        ("psgd_pa_plus", "full", False, "owned_cover"),
    ])
    def test_within_factor_of_measured(self, setup, framework, remote,
                                       mirror, mode):
        split, config = setup
        pg = partition_graph(split.train_graph, 4, "metis",
                             rng=np.random.default_rng(1), mirror=mirror)
        est = estimate_epoch_comm(pg, config.fanouts, config.batch_size,
                                  remote=remote, alpha=0.15,
                                  positive_mode=mode)
        result = run_framework(framework, split, 4, config,
                               rng=np.random.default_rng(2))
        measured = result.graph_data_gb_per_epoch
        assert measured > 0
        ratio = est.graph_data_gb / measured
        # Analytical model: right order of magnitude by construction.
        assert 0.2 < ratio < 5.0, (est.graph_data_gb, measured)
