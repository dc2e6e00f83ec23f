"""Unit tests for the CSR Graph substrate."""

import numpy as np
import pytest

from repro.graph import Graph, GraphError


class TestConstruction:
    def test_from_edges_basic(self, path_graph):
        assert path_graph.num_nodes == 4
        assert path_graph.num_edges == 3
        assert path_graph.num_directed_edges == 6

    def test_empty_graph(self):
        g = Graph.empty(5)
        assert g.num_nodes == 5
        assert g.num_edges == 0
        assert g.degrees.tolist() == [0] * 5

    def test_self_loops_dropped(self):
        g = Graph.from_edges(3, [[0, 0], [0, 1], [2, 2]])
        assert g.num_edges == 1
        assert g.has_edge(0, 1)

    def test_duplicate_edges_merged(self):
        g = Graph.from_edges(3, [[0, 1], [1, 0], [0, 1]])
        assert g.num_edges == 1

    def test_duplicate_weights_summed(self):
        g = Graph.from_edges(3, [[0, 1], [1, 0]], edge_weights=[2.0, 3.0])
        assert g.edge_weight_list().tolist() == [5.0]

    def test_no_dedup_mode_keeps_weights_separate(self):
        # dedup=False is internal; duplicates then appear twice.
        g = Graph.from_edges(3, [[0, 1], [0, 2]], dedup=False)
        assert g.num_edges == 2

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [[0, 5]])

    def test_negative_endpoint(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [[-1, 0]])

    def test_bad_shape(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, np.zeros((2, 3), dtype=np.int64))

    def test_nonpositive_num_nodes(self):
        with pytest.raises(GraphError):
            Graph.from_edges(0, [])

    def test_invalid_indptr(self):
        with pytest.raises(GraphError):
            Graph(np.array([1, 2]), np.array([0]))

    def test_indptr_not_matching_indices(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 2]), np.array([0]))

    def test_features_shape_validation(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [[0, 1]], features=np.zeros((2, 4)))

    def test_weights_shape_validation(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 1, 2]), np.array([1, 0]),
                  weights=np.array([1.0]))

    def test_edge_list_array_input(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        g = Graph.from_edges(3, edges)
        assert g.num_edges == 2


class TestQueries:
    def test_degrees(self, star_graph):
        assert star_graph.degree(0) == 4
        assert star_graph.degrees.tolist() == [4, 1, 1, 1, 1]

    def test_neighbors(self, path_graph):
        assert sorted(path_graph.neighbors(1).tolist()) == [0, 2]
        assert path_graph.neighbors(0).tolist() == [1]

    def test_neighbor_weights_unweighted(self, path_graph):
        assert path_graph.neighbor_weights(1).tolist() == [1.0, 1.0]

    def test_neighbor_weights_weighted(self):
        g = Graph.from_edges(3, [[0, 1], [1, 2]], edge_weights=[2.0, 7.0])
        w = dict(zip(g.neighbors(1).tolist(),
                     g.neighbor_weights(1).tolist()))
        assert w == {0: 2.0, 2: 7.0}

    def test_has_edge(self, triangle_graph):
        assert triangle_graph.has_edge(0, 2)
        assert triangle_graph.has_edge(2, 0)
        assert not triangle_graph.has_edge(0, 0)

    def test_edge_list_sorted_lo_hi(self, cycle_graph):
        edges = cycle_graph.edge_list()
        assert edges.shape == (5, 2)
        assert np.all(edges[:, 0] < edges[:, 1])
        # lexicographic ordering
        keys = edges[:, 0] * 5 + edges[:, 1]
        assert np.all(np.diff(keys) > 0)

    @staticmethod
    def _lexsorted_edges(graph):
        """``edge_list``'s sort, always taken: its oracle."""
        src = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
        mask = src < graph.indices
        edges = np.stack([src[mask], graph.indices[mask]], axis=1)
        return edges[np.lexsort((edges[:, 1], edges[:, 0]))]

    @pytest.mark.parametrize("seed", range(3))
    def test_edge_list_equals_lexsorted_on_from_edges(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 30, size=(120, 2))
        for dedup in (True, False):
            g = Graph.from_edges(30, raw, dedup=dedup)
            np.testing.assert_array_equal(g.edge_list(),
                                          self._lexsorted_edges(g))

    def test_edge_list_sorts_raw_csr_with_unsorted_rows(self):
        # Node 0's row lists 3 before 1; node 1's lists 2 before 0.
        indptr = np.array([0, 2, 4, 5, 6])
        indices = np.array([3, 1, 2, 0, 1, 0])
        g = Graph(indptr, indices)
        edges = g.edge_list()
        np.testing.assert_array_equal(edges, [[0, 1], [0, 3], [1, 2]])
        np.testing.assert_array_equal(edges, self._lexsorted_edges(g))

    def test_edge_weight_list_alignment(self):
        g = Graph.from_edges(4, [[2, 3], [0, 1]], edge_weights=[5.0, 9.0])
        edges = g.edge_list()
        weights = g.edge_weight_list()
        lookup = {tuple(e): w for e, w in zip(edges.tolist(), weights)}
        assert lookup[(0, 1)] == 9.0
        assert lookup[(2, 3)] == 5.0

    def test_feature_dim(self):
        g = Graph.from_edges(3, [[0, 1]], features=np.zeros((3, 7)))
        assert g.feature_dim == 7
        assert Graph.from_edges(3, [[0, 1]]).feature_dim == 0


class TestTransformations:
    def test_subgraph_relabel(self, cycle_graph):
        sub = cycle_graph.subgraph(np.array([0, 1, 2]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 2  # 0-1, 1-2 survive; 4-0 and 3-4 don't

    def test_subgraph_keep_ids(self, cycle_graph):
        sub = cycle_graph.subgraph(np.array([0, 1, 2]), relabel=False)
        assert sub.num_nodes == 5
        assert sub.num_edges == 2
        assert sub.degree(4) == 0

    def test_subgraph_slices_features(self):
        feats = np.arange(12, dtype=np.float32).reshape(4, 3)
        g = Graph.from_edges(4, [[0, 1], [2, 3]], features=feats)
        sub = g.subgraph(np.array([2, 3]))
        assert np.allclose(sub.features, feats[[2, 3]])

    def test_subgraph_duplicate_nodes_rejected(self, cycle_graph):
        with pytest.raises(GraphError):
            cycle_graph.subgraph(np.array([0, 0, 1]))

    def test_subgraph_preserves_weights(self):
        g = Graph.from_edges(4, [[0, 1], [1, 2]], edge_weights=[3.0, 4.0])
        sub = g.subgraph(np.array([0, 1]))
        assert sub.edge_weight_list().tolist() == [3.0]

    def test_edge_subgraph(self, cycle_graph):
        sub = cycle_graph.edge_subgraph(np.array([[0, 1], [2, 3]]))
        assert sub.num_nodes == 5
        assert sub.num_edges == 2

    def test_remove_edges(self, triangle_graph):
        g = triangle_graph.remove_edges(np.array([[0, 1]]))
        assert g.num_edges == 2
        assert not g.has_edge(0, 1)

    def test_remove_edges_orientation_insensitive(self, triangle_graph):
        g = triangle_graph.remove_edges(np.array([[1, 0]]))
        assert not g.has_edge(0, 1)

    def test_with_features(self, path_graph):
        feats = np.ones((4, 2), dtype=np.float32)
        g = path_graph.with_features(feats)
        assert g.feature_dim == 2
        assert g.num_edges == path_graph.num_edges


class TestMatrixViews:
    def test_adjacency_symmetric(self, cycle_graph):
        adj = cycle_graph.adjacency().toarray()
        assert np.allclose(adj, adj.T)
        assert adj.sum() == 2 * cycle_graph.num_edges

    def test_adjacency_weighted(self):
        g = Graph.from_edges(2, [[0, 1]], edge_weights=[3.5])
        assert g.adjacency().toarray()[0, 1] == 3.5
        assert g.adjacency(weighted=False).toarray()[0, 1] == 1.0


class TestSizes:
    def test_structure_nbytes(self, path_graph):
        expected = path_graph.indptr.nbytes + path_graph.indices.nbytes
        assert path_graph.structure_nbytes() == expected

    def test_feature_nbytes(self):
        g = Graph.from_edges(4, [[0, 1]],
                             features=np.zeros((4, 8), dtype=np.float32))
        assert g.feature_nbytes() == 4 * 8 * 4
        assert g.feature_nbytes(num_nodes=2) == 2 * 8 * 4

    def test_feature_nbytes_no_features(self, path_graph):
        assert path_graph.feature_nbytes() == 0

    def test_total_nbytes(self):
        g = Graph.from_edges(4, [[0, 1]],
                             features=np.zeros((4, 2), dtype=np.float32))
        assert g.total_nbytes() == g.structure_nbytes() + g.feature_nbytes()
