"""GNN encoder stacks, predictors and the full link-prediction model."""

import numpy as np
import pytest

from repro.nn import (
    DotPredictor,
    GNNModel,
    LinkPredictionModel,
    MLPPredictor,
    Tensor,
    build_model,
    make_conv,
)
from repro.nn.models import SWEEP_CHUNK
from repro.sampling import NeighborSampler

from conftest import decode_error_bound


@pytest.fixture
def comp_graph(featured_graph, rng):
    sampler = NeighborSampler([5, 3], rng=rng)
    seeds = np.array([0, 1, 2, 3])
    return sampler.sample(featured_graph, seeds)


class TestGNNModel:
    @pytest.mark.parametrize("gnn_type", ["gcn", "sage", "gat", "gatv2"])
    def test_forward_shape(self, gnn_type, comp_graph, featured_graph, rng):
        model = GNNModel(gnn_type, in_dim=16, hidden_dim=8, num_layers=2,
                         rng=rng)
        feats = featured_graph.features[comp_graph.input_nodes]
        out = model(comp_graph, feats)
        assert out.shape == (4, 8)

    def test_layer_count_mismatch(self, comp_graph, featured_graph, rng):
        model = GNNModel("sage", 16, 8, num_layers=3, rng=rng)
        feats = featured_graph.features[comp_graph.input_nodes]
        with pytest.raises(ValueError):
            model(comp_graph, feats)

    def test_feature_row_mismatch(self, comp_graph, rng):
        model = GNNModel("sage", 16, 8, num_layers=2, rng=rng)
        with pytest.raises(ValueError):
            model(comp_graph, np.zeros((1, 16)))

    def test_unknown_type(self, rng):
        with pytest.raises(ValueError):
            make_conv("transformer", 4, 4, rng=rng)

    def test_zero_layers_rejected(self, rng):
        with pytest.raises(ValueError):
            GNNModel("sage", 4, 4, num_layers=0, rng=rng)

    def test_out_dim_override(self, comp_graph, featured_graph, rng):
        model = GNNModel("sage", 16, 8, num_layers=2, out_dim=3, rng=rng)
        feats = featured_graph.features[comp_graph.input_nodes]
        assert model(comp_graph, feats).shape == (4, 3)


class TestPredictors:
    def test_dot_predictor(self):
        h_u = Tensor(np.array([[1.0, 2.0], [0.0, 1.0]]))
        h_v = Tensor(np.array([[3.0, 4.0], [1.0, 0.0]]))
        out = DotPredictor()(h_u, h_v)
        assert np.allclose(out.data, [11.0, 0.0])

    def test_mlp_predictor_shape(self, rng):
        pred = MLPPredictor(8, num_layers=3, rng=rng)
        h = Tensor(rng.standard_normal((5, 8)))
        assert pred(h, h).shape == (5,)

    def test_mlp_predictor_depth(self, rng):
        pred = MLPPredictor(8, num_layers=3, rng=rng)
        assert len(pred.mlp.layers) == 3


class TestSweepOracle:
    """The forward-only decode, on float32 and float64 tables: every
    ``sweep`` score equals the ``decode`` score of the same pair bit
    for bit (top-k purity), a pair scores the same alone, in a group of
    2 and in a group of 600 rows (across a ``SWEEP_CHUNK`` boundary),
    and every score lies within :func:`decode_error_bound` of the
    float64 ``forward`` on the float64 table."""

    COUNTS = (0, 1, 2, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1,
              2 * SWEEP_CHUNK + 1, 4000)

    @staticmethod
    def _assert_oracle(predictor, table, rng):
        for dtype in (np.float32, np.float64):
            served = table.astype(dtype)
            for n in TestSweepOracle.COUNTS:
                rows = rng.permutation(table.shape[0])[:n]
                query = np.full(n, 7)
                got = predictor.sweep(served[7], served, rows)
                assert got.dtype == dtype and got.shape == (n,)
                # Reversed, every pair sits at another row and chunk.
                pairs = predictor.decode(served, query, rows[::-1])[::-1]
                assert got.tobytes() == pairs.tobytes(), (dtype, n)
                want = predictor(Tensor(table[query]),
                                 Tensor(table[rows])).data
                bound = decode_error_bound(predictor, table[query],
                                           table[rows], dtype)
                assert np.all(np.abs(got - want) <= bound), (dtype, n)
            u, v = rng.integers(0, table.shape[0], size=(2, 600))
            group = predictor.decode(served, u, v)
            twos = np.concatenate([predictor.decode(served, u[i:i + 2],
                                                    v[i:i + 2])
                                   for i in range(0, 600, 2)])
            alone = np.concatenate([predictor.decode(served, u[[i]], v[[i]])
                                    for i in range(600)])
            assert group.tobytes() == twos.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("width", [64, 16, 20])
    def test_mlp(self, depth, bias, width):
        """Width 20 is off ``SWEEP_PANEL``: the decode zero-pads it."""
        rng = np.random.default_rng(depth)
        predictor = MLPPredictor(64, hidden_dim=width, num_layers=depth,
                                 rng=rng).eval()
        if not bias:
            for layer in predictor.mlp.layers:
                layer.bias = None
        self._assert_oracle(predictor, rng.standard_normal((4100, 64)), rng)

    @pytest.mark.parametrize("width", [18, 36])
    def test_off_panel_width(self, width):
        """Widths on which this OpenBLAS rounds a row by the call's row
        count even among chunk-sized calls (width 20 differs only from
        larger calls): the decode's zero-padding is what keeps them
        pure."""
        rng = np.random.default_rng(width)
        predictor = MLPPredictor(64, hidden_dim=width, num_layers=3,
                                 rng=rng).eval()
        self._assert_oracle(predictor, rng.standard_normal((4100, 64)), rng)

    def test_dot(self):
        rng = np.random.default_rng(5)
        self._assert_oracle(DotPredictor(), rng.standard_normal((4100, 64)),
                            rng)

    def test_active_dropout_falls_back_to_forward(self):
        from repro.nn.module import Dropout
        rng = np.random.default_rng(7)
        predictor = MLPPredictor(16, num_layers=3, rng=rng)
        predictor.mlp.dropout = Dropout(0.5, rng=np.random.default_rng(1))
        table = rng.standard_normal((700, 16))
        rows = np.arange(1, 700)
        got = predictor.sweep(table[0], table, rows)
        predictor.mlp.dropout.rng = np.random.default_rng(1)
        want = predictor(Tensor(table[:1]), Tensor(table[rows])).data
        assert got.tobytes() == want.tobytes()
        predictor.mlp.dropout.rng = np.random.default_rng(1)
        pairs = predictor.decode(table, np.zeros_like(rows), rows)
        assert pairs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_rows_out_of_range_raise(self, bad):
        table = np.zeros((10, 4))
        for predictor in (MLPPredictor(4, num_layers=2), DotPredictor()):
            with pytest.raises(IndexError):
                predictor.sweep(table[0], table, np.array([0, bad]))
            with pytest.raises(IndexError):
                predictor.decode(table, np.array([0, bad]), np.array([1, 2]))


class TestLinkPredictionModel:
    def test_build_model_defaults(self):
        model = build_model("sage", in_dim=16, hidden_dim=8, num_layers=2,
                            seed=0)
        assert isinstance(model, LinkPredictionModel)
        assert isinstance(model.predictor, MLPPredictor)

    def test_build_model_dot(self):
        model = build_model("sage", 16, 8, num_layers=2, predictor="dot",
                            seed=0)
        assert isinstance(model.predictor, DotPredictor)

    def test_build_model_unknown_predictor(self):
        with pytest.raises(ValueError):
            build_model("sage", 16, 8, predictor="bilinear")

    def test_seed_reproducibility(self):
        a = build_model("gcn", 8, 4, num_layers=2, seed=42)
        b = build_model("gcn", 8, 4, num_layers=2, seed=42)
        for (_, pa), (_, pb) in zip(a.named_parameters(),
                                    b.named_parameters()):
            assert np.allclose(pa.data, pb.data)

    def test_end_to_end_scoring(self, comp_graph, featured_graph):
        model = build_model("sage", 16, 8, num_layers=2, seed=0)
        feats = featured_graph.features[comp_graph.input_nodes]
        scores = model(comp_graph, feats, np.array([0, 1]),
                       np.array([2, 3]))
        assert scores.shape == (2,)

    def test_gradients_flow_end_to_end(self, comp_graph, featured_graph):
        model = build_model("sage", 16, 8, num_layers=2, seed=0)
        feats = featured_graph.features[comp_graph.input_nodes]
        scores = model(comp_graph, feats, np.array([0]), np.array([1]))
        scores.sum().backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)
