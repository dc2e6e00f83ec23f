"""Checkpointing and the full-batch GCN path."""

import numpy as np
import pytest

from repro.nn import (
    FullBatchLinkPredictor,
    FullGraphGCN,
    Tensor,
    build_model,
    load_model,
    load_state_dict,
    normalized_adjacency,
    save_model,
    save_state_dict,
    train_full_batch,
)

from conftest import recorded_nodes, taped_forward


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        model = build_model("sage", 8, 4, num_layers=2, seed=1)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        other = build_model("sage", 8, 4, num_layers=2, seed=99)
        load_model(other, path)
        for (_, a), (_, b) in zip(model.named_parameters(),
                                  other.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_state_dict_roundtrip(self, tmp_path):
        state = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        path = str(tmp_path / "state.npz")
        save_state_dict(state, path)
        loaded = load_state_dict(path)
        assert set(loaded) == {"w", "b"}
        assert np.allclose(loaded["w"], state["w"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state_dict(str(tmp_path / "nope.npz"))

    def test_non_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "random.npz")
        np.savez(path, junk=np.zeros(2))
        with pytest.raises(ValueError):
            load_state_dict(path)

    def test_architecture_mismatch_rejected(self, tmp_path):
        model = build_model("sage", 8, 4, num_layers=2, seed=1)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        wrong = build_model("sage", 8, 6, num_layers=2, seed=1)
        with pytest.raises((KeyError, ValueError)):
            load_model(wrong, path)


class TestNormalizedAdjacency:
    def test_row_sums_with_self_loops(self, triangle_graph):
        prop = normalized_adjacency(triangle_graph)
        # symmetric normalization of a regular graph: rows sum to 1
        assert np.allclose(np.asarray(prop.sum(axis=1)).ravel(), 1.0)

    def test_isolated_node_zero_row(self):
        from repro.graph import Graph
        g = Graph.from_edges(3, [[0, 1]])
        prop = normalized_adjacency(g, add_self_loops=False)
        assert prop[2].nnz == 0

    def test_symmetric(self, featured_graph):
        prop = normalized_adjacency(featured_graph)
        diff = (prop - prop.T)
        assert abs(diff).max() < 1e-12


class TestFullGraphGCN:
    def test_forward_shape(self, featured_graph, rng):
        model = FullGraphGCN(16, 8, num_layers=2, rng=rng)
        prop = normalized_adjacency(featured_graph)
        out = model(prop, featured_graph.features)
        assert out.shape == (featured_graph.num_nodes, 8)

    def test_invalid_layers(self, rng):
        with pytest.raises(ValueError):
            FullGraphGCN(4, 4, num_layers=0, rng=rng)

    def test_predictor_shape(self, featured_graph):
        model = FullBatchLinkPredictor(16, 8, seed=0)
        prop = normalized_adjacency(featured_graph)
        pairs = featured_graph.edge_list()[:7]
        assert model(prop, featured_graph.features, pairs).shape == (7,)


class TestTrainFullBatch:
    def test_learns(self, small_split):
        result = train_full_batch(small_split, hidden_dim=16,
                                  num_layers=2, epochs=40, hits_k=20,
                                  seed=0)
        losses = result["losses"]
        assert losses[-1] < losses[0]
        assert result["test_auc"] > 0.6
        assert 0 <= result["test_hits"] <= 1

    def test_test_scoring_records_no_tape(self, small_split):
        """Only the training steps record nodes; the final scoring
        gives the taped forward's metrics without its tape."""
        def run():
            return train_full_batch(small_split, hidden_dim=8,
                                    num_layers=2, epochs=2, seed=1)

        with recorded_nodes() as free_nodes:
            free = run()
        with taped_forward(), recorded_nodes() as taped_nodes:
            taped = run()
        assert free_nodes[0] < taped_nodes[0]
        assert free["losses"] == taped["losses"]
        assert (free["test_auc"], free["test_hits"]) == \
            (taped["test_auc"], taped["test_hits"])

    def test_requires_features(self, small_split):
        from repro.graph.splits import EdgeSplit
        bare = EdgeSplit(
            train_graph=small_split.train_graph.with_features(None),
            train_pos=small_split.train_pos,
            val_pos=small_split.val_pos,
            test_pos=small_split.test_pos,
            val_neg=small_split.val_neg,
            test_neg=small_split.test_neg,
        )
        with pytest.raises(ValueError):
            train_full_batch(bare, epochs=1)
