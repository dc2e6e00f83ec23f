"""Extension features: alternative sparsifiers, feature cache, GIN,
extra metrics, CLI."""

import numpy as np
import pytest

from repro.distributed import CommMeter, RemoteGraphStore, WorkerGraphView
from repro.eval import mean_reciprocal_rank, precision_at_k
from repro.graph import Graph, synthetic_lp_graph
from repro.nn import GINConv, Tensor, build_model
from repro.partition import partition_graph
from repro.sparsify import (
    SPARSIFIER_KINDS,
    exact_er_sparsify,
    sparsify_by_kind,
    sparsify_partitions,
    uniform_sparsify,
)


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(2)
    return synthetic_lp_graph(num_nodes=150, target_edges=600,
                              feature_dim=8, num_communities=4, rng=rng)


class TestAlternativeSparsifiers:
    def test_uniform_keeps_nodes(self, graph, rng):
        sparse = uniform_sparsify(graph, 100, rng=rng)
        assert sparse.num_nodes == graph.num_nodes
        assert 0 < sparse.num_edges <= 100

    def test_uniform_weights_flat_in_expectation(self, graph):
        """Uniform sampling weight = multiplicity * |E| / n_samples."""
        sparse = uniform_sparsify(graph, 50,
                                  rng=np.random.default_rng(0))
        weights = sparse.edge_weight_list()
        base = graph.num_edges / 50
        # every weight is an integer multiple of |E|/n
        ratios = weights / base
        assert np.allclose(ratios, np.round(ratios))

    def test_exact_er_subset(self, graph, rng):
        sparse = exact_er_sparsify(graph, 120, rng=rng)
        orig = set(map(tuple, graph.edge_list().tolist()))
        assert all(tuple(e) in orig for e in sparse.edge_list().tolist())

    def test_exact_er_prefers_bridges(self, rng):
        """A bridge edge (resistance 1) must out-sample clique edges."""
        # two 5-cliques joined by one bridge
        edges = []
        for base in (0, 5):
            edges += [[base + i, base + j]
                      for i in range(5) for j in range(i + 1, 5)]
        edges.append([0, 5])
        g = Graph.from_edges(10, edges)
        counts = 0
        trials = 40
        for seed in range(trials):
            sparse = exact_er_sparsify(g, 4,
                                       rng=np.random.default_rng(seed))
            if sparse.has_edge(0, 5):
                counts += 1
        # bridge r=1 vs clique-edge r~0.33; expect it kept far more
        # often than a uniform 4/21 draw would.
        assert counts / trials > 0.5

    def test_dispatch(self, graph, rng):
        for kind in SPARSIFIER_KINDS:
            sparse = sparsify_by_kind(kind, graph, 60, rng=rng)
            assert sparse.num_nodes == graph.num_nodes

    def test_dispatch_unknown(self, graph, rng):
        with pytest.raises(ValueError):
            sparsify_by_kind("spectral", graph, 10, rng=rng)

    def test_empty_graph_handled(self, rng):
        g = Graph.empty(4)
        assert uniform_sparsify(g, 5, rng=rng).num_edges == 0
        assert exact_er_sparsify(g, 5, rng=rng).num_edges == 0

    def test_partition_sparsifier_kind(self, graph, rng):
        pg = partition_graph(graph, 2, "metis", rng=rng, mirror=True)
        result = sparsify_partitions(pg, alpha=0.3, rng=rng,
                                     kind="uniform")
        assert result.kind == "uniform"
        assert len(result.graphs) == 2


class TestFeatureCache:
    def test_second_fetch_free(self, graph):
        pg = partition_graph(graph, 2, "metis",
                             rng=np.random.default_rng(1), mirror=True)
        meter = CommMeter()
        view = WorkerGraphView(pg, 0, remote=RemoteGraphStore(graph),
                               meter=meter, cache_remote_features=True)
        foreign = pg.owned_nodes(1)
        foreign = foreign[~pg.has_feature_locally(0, foreign)][:4]
        view.fetch_features(foreign)
        first = meter.current.feature_bytes
        assert first > 0
        view.fetch_features(foreign)
        assert meter.current.feature_bytes == first  # cached, no charge

    def test_clear_resets(self, graph):
        pg = partition_graph(graph, 2, "metis",
                             rng=np.random.default_rng(1), mirror=True)
        meter = CommMeter()
        view = WorkerGraphView(pg, 0, remote=RemoteGraphStore(graph),
                               meter=meter, cache_remote_features=True)
        foreign = pg.owned_nodes(1)
        foreign = foreign[~pg.has_feature_locally(0, foreign)][:4]
        view.fetch_features(foreign)
        first = meter.current.feature_bytes
        view.clear_feature_cache()
        view.fetch_features(foreign)
        assert meter.current.feature_bytes == 2 * first

    def test_without_cache_charged_every_time(self, graph):
        pg = partition_graph(graph, 2, "metis",
                             rng=np.random.default_rng(1), mirror=True)
        meter = CommMeter()
        view = WorkerGraphView(pg, 0, remote=RemoteGraphStore(graph),
                               meter=meter, cache_remote_features=False)
        foreign = pg.owned_nodes(1)
        foreign = foreign[~pg.has_feature_locally(0, foreign)][:4]
        view.fetch_features(foreign)
        view.fetch_features(foreign)
        per_fetch = 4 * graph.feature_dim * 4
        assert meter.current.feature_bytes == 2 * per_fetch

    def test_values_identical_with_cache(self, graph):
        pg = partition_graph(graph, 2, "metis",
                             rng=np.random.default_rng(1), mirror=True)
        remote = RemoteGraphStore(graph)
        cached = WorkerGraphView(pg, 0, remote=remote, meter=CommMeter(),
                                 cache_remote_features=True)
        plain = WorkerGraphView(pg, 0, remote=remote, meter=CommMeter())
        nodes = np.arange(10)
        assert np.allclose(cached.fetch_features(nodes),
                           plain.fetch_features(nodes))


class TestGIN:
    def test_forward_shape(self, rng):
        from repro.sampling import Block
        block = Block(src_nodes=np.arange(5), num_dst=2,
                      edge_src=np.array([2, 3, 4]),
                      edge_dst=np.array([0, 0, 1]),
                      edge_weight=np.ones(3))
        conv = GINConv(4, 6, rng=rng)
        out = conv(block, Tensor(rng.standard_normal((5, 4))))
        assert out.shape == (2, 6)

    def test_eps_is_learned(self, rng):
        from repro.sampling import Block
        block = Block(src_nodes=np.arange(3), num_dst=1,
                      edge_src=np.array([1, 2]),
                      edge_dst=np.array([0, 0]),
                      edge_weight=np.ones(2))
        conv = GINConv(2, 2, rng=rng)
        h = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        conv(block, h).sum().backward()
        assert conv.eps.grad is not None

    def test_build_model_gin(self):
        model = build_model("gin", 8, 4, num_layers=2, seed=0)
        assert model.encoder.gnn_type == "gin"


class TestExtraMetrics:
    def test_mrr_perfect(self):
        assert mean_reciprocal_rank(np.array([5.0]),
                                    np.array([1.0, 2.0])) == 1.0

    def test_mrr_rank(self):
        # one negative above the positive -> rr = 1/2
        assert mean_reciprocal_rank(np.array([1.5]),
                                    np.array([2.0, 1.0])) == 0.5

    def test_mrr_ties_count_against(self):
        assert mean_reciprocal_rank(np.array([1.0]),
                                    np.array([1.0])) == 0.5

    def test_mrr_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_reciprocal_rank(np.array([]), np.array([1.0]))

    def test_precision_at_k(self):
        pos = np.array([3.0, 2.5])
        neg = np.array([1.0, 2.0, 0.5])
        assert precision_at_k(pos, neg, k=2) == 1.0
        assert precision_at_k(pos, neg, k=4) == pytest.approx(0.5)

    def test_precision_invalid_k(self):
        with pytest.raises(ValueError):
            precision_at_k(np.array([1.0]), np.array([0.0]), k=0)


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table3" in out

    def test_unknown_experiment(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["fig99"]) == 2

    def test_runs_fig13_smoke(self, capsys):
        from repro.experiments.__main__ import main
        code = main(["fig13", "--scale", "smoke",
                     "--batch-sizes", "64", "128", "--p", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch_size" in out


class TestTreePlusER:
    def test_preserves_connectivity(self, graph):
        from repro.graph import giant_component_fraction
        from repro.sparsify import tree_plus_er_sparsify
        rng = np.random.default_rng(0)
        # aggressive budget: bare ER sampling would likely disconnect
        sparse = tree_plus_er_sparsify(graph, graph.num_nodes + 10,
                                       rng=rng)
        assert giant_component_fraction(sparse) == pytest.approx(
            giant_component_fraction(graph))

    def test_edges_subset(self, graph, rng):
        from repro.sparsify import tree_plus_er_sparsify
        sparse = tree_plus_er_sparsify(graph, 200, rng=rng)
        orig = set(map(tuple, graph.edge_list().tolist()))
        assert all(tuple(e) in orig for e in sparse.edge_list().tolist())

    def test_small_budget_still_connected(self, graph, rng):
        from repro.graph import connected_components
        from repro.sparsify import tree_plus_er_sparsify
        import numpy as _np
        sparse = tree_plus_er_sparsify(graph, 1, rng=rng)
        # even with budget 1 the forest is kept
        orig_comp = _np.unique(connected_components(graph)).size
        new_comp = _np.unique(connected_components(sparse)).size
        assert new_comp == orig_comp

    def test_registered_kind(self, graph, rng):
        from repro.sparsify import sparsify_by_kind
        sparse = sparsify_by_kind("tree_er", graph, 100, rng=rng)
        assert sparse.num_nodes == graph.num_nodes

    def test_empty_graph(self, rng):
        from repro.graph import Graph
        from repro.sparsify import tree_plus_er_sparsify
        assert tree_plus_er_sparsify(Graph.empty(3), 5,
                                     rng=rng).num_edges == 0

    def test_splpg_runs_with_tree_er(self, rng):
        from repro import TrainConfig, split_edges
        from repro.core import run_framework
        from repro.graph import synthetic_lp_graph
        g = synthetic_lp_graph(150, 600, feature_dim=8,
                               num_communities=4,
                               rng=np.random.default_rng(1))
        split = split_edges(g, rng=np.random.default_rng(2))
        cfg = TrainConfig(gnn_type="sage", hidden_dim=12, num_layers=2,
                          fanouts=(4, 3), batch_size=64, epochs=1,
                          hits_k=10, seed=0)
        result = run_framework("splpg", split, 2, cfg,
                               rng=np.random.default_rng(3),
                               sparsifier_kind="tree_er")
        assert np.isfinite(result.test.auc)
