"""Graph and split persistence."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    load_graph,
    load_split,
    save_graph,
    save_split,
    split_edges,
)


class TestGraphIO:
    def test_roundtrip_plain(self, cycle_graph, tmp_path):
        path = str(tmp_path / "g.npz")
        save_graph(cycle_graph, path)
        loaded = load_graph(path)
        assert np.array_equal(loaded.indptr, cycle_graph.indptr)
        assert np.array_equal(loaded.indices, cycle_graph.indices)
        assert loaded.weights is None and loaded.features is None

    def test_roundtrip_weighted_featured(self, tmp_path):
        g = Graph.from_edges(
            4, [[0, 1], [2, 3]],
            edge_weights=[1.5, 2.5],
            features=np.arange(8, dtype=np.float32).reshape(4, 2))
        path = str(tmp_path / "g.npz")
        save_graph(g, path)
        loaded = load_graph(path)
        assert np.allclose(loaded.edge_weight_list(), g.edge_weight_list())
        assert np.allclose(loaded.features, g.features)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_graph(str(tmp_path / "none.npz"))

    def test_wrong_format(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError):
            load_graph(path)


class TestSplitIO:
    def test_roundtrip(self, featured_graph, rng, tmp_path):
        split = split_edges(featured_graph, rng=rng)
        path = str(tmp_path / "split.npz")
        save_split(split, path)
        loaded = load_split(path)
        assert np.array_equal(loaded.train_pos, split.train_pos)
        assert np.array_equal(loaded.test_neg, split.test_neg)
        assert loaded.train_graph.num_edges == split.train_graph.num_edges
        assert np.allclose(loaded.train_graph.features,
                           split.train_graph.features)

    def test_loaded_split_trains(self, featured_graph, rng, tmp_path):
        from repro import TrainConfig
        from repro.core import run_framework
        split = split_edges(featured_graph, rng=rng)
        path = str(tmp_path / "split.npz")
        save_split(split, path)
        loaded = load_split(path)
        cfg = TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                          fanouts=(5, 3), batch_size=64, epochs=1,
                          hits_k=20, seed=0)
        result = run_framework("centralized", loaded, 1, cfg)
        assert np.isfinite(result.test.auc)

    def test_wrong_format(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError):
            load_split(path)

    def test_graph_file_is_not_split(self, cycle_graph, tmp_path):
        path = str(tmp_path / "g.npz")
        save_graph(cycle_graph, path)
        with pytest.raises(ValueError):
            load_split(path)
