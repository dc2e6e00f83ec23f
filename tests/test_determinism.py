"""End-to-end determinism and exact byte-accounting checks."""

import numpy as np
import pytest

from repro import TrainConfig
from repro.core import run_framework
from repro.distributed import CommMeter, RemoteGraphStore, WorkerGraphView
from repro.distributed.comm import BYTES_PER_EDGE, BYTES_PER_NODE_ID
from repro.partition import partition_graph


def config(**overrides):
    base = dict(gnn_type="sage", hidden_dim=16, num_layers=2,
                fanouts=(5, 3), batch_size=64, epochs=2, hits_k=20,
                eval_every=2, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["centralized", "psgd_pa", "splpg"])
    def test_same_seed_same_result(self, small_split, name):
        a = run_framework(name, small_split, 2, config(),
                          rng=np.random.default_rng(9))
        b = run_framework(name, small_split, 2, config(),
                          rng=np.random.default_rng(9))
        assert a.test.hits == b.test.hits
        assert a.test.auc == b.test.auc
        assert a.comm_total.graph_data_bytes == \
            b.comm_total.graph_data_bytes
        for sa, sb in zip(a.history, b.history):
            assert sa.mean_loss == sb.mean_loss

    def test_different_seed_different_result(self, small_split):
        a = run_framework("splpg", small_split, 2, config(seed=1),
                          rng=np.random.default_rng(1))
        b = run_framework("splpg", small_split, 2, config(seed=2),
                          rng=np.random.default_rng(2))
        assert a.history[0].mean_loss != b.history[0].mean_loss


class TestDeltaCharging:
    """Exact byte counts for the complete data-sharing view."""

    def test_complete_query_charges_missing_edges_only(self,
                                                       featured_graph):
        pg = partition_graph(featured_graph, 2, "metis",
                             rng=np.random.default_rng(0), mirror=False)
        meter = CommMeter()
        view = WorkerGraphView(pg, 0, remote=RemoteGraphStore(featured_graph),
                               meter=meter)
        nodes = np.arange(featured_graph.num_nodes, dtype=np.int64)
        nbrs, _, _ = view.neighbors_batch(nodes)
        # full answers returned
        assert nbrs.size == featured_graph.num_directed_edges
        local = pg.local_graph(0)
        missing_edges = int(featured_graph.num_directed_edges
                            - local.num_directed_edges)
        full_deg = featured_graph.degrees
        local_deg = local.degrees
        incomplete = int(np.count_nonzero(full_deg - local_deg > 0))
        expected = missing_edges * BYTES_PER_EDGE + \
            incomplete * BYTES_PER_NODE_ID
        assert meter.current.structure_bytes == expected

    def test_complete_query_free_when_mirrored_and_owned(self,
                                                         featured_graph):
        pg = partition_graph(featured_graph, 2, "metis",
                             rng=np.random.default_rng(0), mirror=True)
        meter = CommMeter()
        view = WorkerGraphView(pg, 0, remote=RemoteGraphStore(featured_graph),
                               meter=meter)
        owned = pg.owned_nodes(0)
        view.neighbors_batch(owned)  # mirrored => complete locally
        assert meter.current.structure_bytes == 0

    def test_repeated_queries_charged_repeatedly(self, featured_graph):
        """The paper's accounting has no cross-batch structure cache."""
        pg = partition_graph(featured_graph, 2, "metis",
                             rng=np.random.default_rng(0), mirror=False)
        meter = CommMeter()
        view = WorkerGraphView(pg, 0, remote=RemoteGraphStore(featured_graph),
                               meter=meter)
        foreign = pg.owned_nodes(1)[:5]
        view.neighbors_batch(foreign)
        first = meter.current.structure_bytes
        view.neighbors_batch(foreign)
        assert meter.current.structure_bytes == 2 * first
