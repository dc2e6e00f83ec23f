"""Graph analysis utilities."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graph import (
    Graph,
    connected_components,
    degree_histogram,
    giant_component_fraction,
    global_clustering_coefficient,
    graph_stats,
    modularity,
    partition_report,
    power_law_tail_ratio,
    synthetic_lp_graph,
)


class TestImportCost:
    def test_import_repro_leaves_csgraph_unloaded(self):
        """``scipy.sparse.csgraph`` (and the scipy.linalg it pulls in)
        loads only when ``connected_components`` runs."""
        code = ("import sys, repro; "
                "print('scipy.sparse.csgraph' in sys.modules)")
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "False"


class TestComponents:
    def test_single_component(self, cycle_graph):
        labels = connected_components(cycle_graph)
        assert np.unique(labels).size == 1
        assert giant_component_fraction(cycle_graph) == 1.0

    def test_two_components(self):
        g = Graph.from_edges(6, [[0, 1], [1, 2], [3, 4]])
        labels = connected_components(g)
        assert np.unique(labels).size == 3  # {0,1,2}, {3,4}, {5}
        assert giant_component_fraction(g) == pytest.approx(0.5)


class TestClustering:
    def test_triangle_is_one(self, triangle_graph):
        assert global_clustering_coefficient(triangle_graph) == \
            pytest.approx(1.0)

    def test_star_is_zero(self, star_graph):
        assert global_clustering_coefficient(star_graph) == 0.0

    def test_path_is_zero(self, path_graph):
        assert global_clustering_coefficient(path_graph) == 0.0

    def test_bounded(self, featured_graph):
        c = global_clustering_coefficient(featured_graph)
        assert 0.0 <= c <= 1.0


class TestDegreeStats:
    def test_histogram(self, star_graph):
        hist = degree_histogram(star_graph)
        assert hist[1] == 4 and hist[4] == 1

    def test_tail_ratio_skewed(self, rng):
        from repro.graph import chung_lu_graph
        skewed = chung_lu_graph(600, 2500, exponent=2.1, rng=rng)
        assert power_law_tail_ratio(skewed) > 2.0

    def test_tail_ratio_regular(self, cycle_graph):
        assert power_law_tail_ratio(cycle_graph) == pytest.approx(1.0)


class TestGraphStats:
    def test_fields(self, featured_graph):
        stats = graph_stats(featured_graph)
        assert stats.num_nodes == featured_graph.num_nodes
        assert stats.num_edges == featured_graph.num_edges
        assert stats.min_degree <= stats.mean_degree <= stats.max_degree
        assert 0 < stats.giant_component_fraction <= 1.0
        d = stats.as_dict()
        assert d["num_nodes"] == featured_graph.num_nodes


class TestModularity:
    def test_perfect_communities_positive(self):
        # two triangles joined by one edge, labeled by triangle
        g = Graph.from_edges(6, [[0, 1], [1, 2], [0, 2],
                                 [3, 4], [4, 5], [3, 5], [2, 3]])
        q = modularity(g, np.array([0, 0, 0, 1, 1, 1]))
        assert q > 0.3

    def test_single_community_zero_ish(self, triangle_graph):
        q = modularity(triangle_graph, np.zeros(3, dtype=np.int64))
        assert q == pytest.approx(0.0)

    def test_label_length_checked(self, triangle_graph):
        with pytest.raises(ValueError):
            modularity(triangle_graph, np.array([0, 1]))

    def test_generator_communities_high_modularity(self, rng):
        from repro.graph import community_graph
        g, comm = community_graph(300, 1200, num_communities=6,
                                  intra_fraction=0.9, rng=rng)
        assert modularity(g, comm) > 0.4


class TestPartitionReport:
    def test_metis_report(self, featured_graph, rng):
        from repro.partition import metis_partition
        a = metis_partition(featured_graph, 4, rng=rng)
        report = partition_report(featured_graph, a)
        assert report["num_parts"] == 4
        assert 0 <= report["cut_fraction"] <= 1
        assert report["balance"] >= 1.0

    def test_metis_beats_random_modularity(self, featured_graph):
        from repro.partition import metis_partition, random_tma_partition
        rng = np.random.default_rng(0)
        metis_q = partition_report(
            featured_graph,
            metis_partition(featured_graph, 4, rng=rng))["modularity"]
        random_q = partition_report(
            featured_graph,
            random_tma_partition(featured_graph, 4, rng=rng))["modularity"]
        assert metis_q > random_q


class TestKHop:
    def test_path_graph_sizes(self, path_graph):
        from repro.graph import k_hop_sizes
        sizes = k_hop_sizes(path_graph, np.array([0, 1]), k=1)
        assert sizes.tolist() == [1, 2]
        sizes2 = k_hop_sizes(path_graph, np.array([0]), k=3)
        assert sizes2.tolist() == [3]

    def test_star_one_hop(self, star_graph):
        from repro.graph import k_hop_sizes
        assert k_hop_sizes(star_graph, np.array([0]), 1).tolist() == [4]
        assert k_hop_sizes(star_graph, np.array([1]), 2).tolist() == [4]

    def test_isolated_node(self):
        from repro.graph import Graph, k_hop_sizes
        g = Graph.from_edges(3, [[0, 1]])
        assert k_hop_sizes(g, np.array([2]), 3).tolist() == [0]

    def test_invalid_k(self, path_graph):
        from repro.graph import k_hop_sizes
        with pytest.raises(ValueError):
            k_hop_sizes(path_graph, np.array([0]), 0)

    def test_mean_k_hop_monotone_in_k(self, featured_graph):
        from repro.graph import mean_k_hop_size
        rng = np.random.default_rng(0)
        one = mean_k_hop_size(featured_graph, 1, rng=rng)
        two = mean_k_hop_size(featured_graph, 2, rng=rng)
        assert two > one > 0

    def test_mean_k_hop_samples_with_the_seeded_rng(self):
        """Above ``sample`` nodes (200) the estimate averages a seeded
        ``rng.choice`` of nodes: pinned, and reproduced by the draw."""
        from repro.graph import k_hop_sizes, mean_k_hop_size
        graph = synthetic_lp_graph(num_nodes=500, target_edges=1500,
                                   feature_dim=4, num_communities=4,
                                   rng=np.random.default_rng(7))
        assert graph.num_nodes > 200
        estimate = mean_k_hop_size(graph, 2, rng=np.random.default_rng(0))
        assert estimate == 56.395
        nodes = np.random.default_rng(0).choice(500, size=200, replace=False)
        assert estimate == float(k_hop_sizes(graph, nodes, 2).mean())
        assert mean_k_hop_size(graph, 2, rng=np.random.default_rng(1)) \
            == 58.15
