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
from repro.nn.models import SWEEP_CHUNK, _decode_weights
from repro.sampling import NeighborSampler

from conftest import decode_error_bound, oracle_decode, oracle_sweep


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
                                 rng=rng)
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
                                 rng=rng)
        self._assert_oracle(predictor, rng.standard_normal((4100, 64)), rng)

    def test_dot(self):
        rng = np.random.default_rng(5)
        self._assert_oracle(DotPredictor(), rng.standard_normal((4100, 64)),
                            rng)

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_rows_out_of_range_raise(self, bad):
        table = np.zeros((10, 4))
        for predictor in (MLPPredictor(4, num_layers=2), DotPredictor()):
            with pytest.raises(IndexError):
                predictor.sweep(table[0], table, np.array([0, bad]))
            with pytest.raises(IndexError):
                predictor.decode(table, np.array([0, bad]), np.array([1, 2]))


class TestDecodeOracle:
    """``decode`` and ``sweep`` (picked rows and the whole table)
    against the take-based routine they replaced
    (``conftest.oracle_sweep`` / ``oracle_decode``), byte for byte:
    biases holding -0.0, pre-activations cancelling exactly to 0, NaN
    and inf rows, layers without a bias, every ``TestSweepOracle`` row
    count, float32 and float64."""

    @staticmethod
    def _assert_oracle(predictor, table, query_row=7, counts=None):
        rng = np.random.default_rng(table.shape[0])
        for dtype in (np.float32, np.float64):
            served = table.astype(dtype)
            query = served[query_row]
            for n in counts or TestSweepOracle.COUNTS:
                rows = rng.permutation(table.shape[0])[:n]
                want = oracle_sweep(predictor, query, served, rows)
                got = predictor.sweep(query, served, rows)
                assert got.tobytes() == want.tobytes(), (dtype, n)
                whole = predictor.sweep(query, served[:n])
                assert whole.tobytes() == oracle_sweep(
                    predictor, query, served, np.arange(n)).tobytes()
                u = rng.integers(0, table.shape[0], n)
                assert (predictor.decode(served, u, rows).tobytes()
                        == oracle_decode(predictor, served, u,
                                         rows).tobytes()), (dtype, n)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("width", [64, 20])
    def test_mlp(self, width, bias):
        rng = np.random.default_rng(width)
        predictor = MLPPredictor(64, hidden_dim=width, num_layers=3,
                                 rng=rng)
        if not bias:
            for layer in predictor.mlp.layers:
                layer.bias = None
        self._assert_oracle(predictor, rng.standard_normal((4100, 64)))

    def test_dot(self):
        rng = np.random.default_rng(3)
        self._assert_oracle(DotPredictor(), rng.standard_normal((4100, 64)))

    @pytest.mark.parametrize("bias", [True, False])
    def test_signed_zeros_and_exact_cancellation(self, bias):
        """Small integers everywhere, so every product and sum is exact:
        many pre-activations are exactly 0, the table holds -0.0 rows
        and entries, and every zero bias entry is -0.0."""
        rng = np.random.default_rng(17)
        predictor = MLPPredictor(8, hidden_dim=16, num_layers=3,
                                 rng=rng)
        for layer in predictor.mlp.layers:
            layer.weight.data[...] = rng.integers(-2, 3,
                                                  layer.weight.shape)
            if not bias:
                layer.bias = None
                continue
            values = rng.integers(-3, 4, layer.bias.shape).astype(float)
            values[values == 0] = -0.0
            layer.bias.data[...] = values
        table = rng.integers(-1, 3, (1200, 8)).astype(float)
        table[table == 0] = -0.0
        table[::5] = 0.0
        table[1::5] = -0.0
        first = predictor.mlp.layers[0]
        pre = (table[7] * table) @ first.weight.data
        if bias:
            pre = pre + first.bias.data
            assert np.signbit(first.bias.data[first.bias.data == 0]).all()
            assert (first.bias.data == 0).any()
        assert (pre == 0).sum() > 100
        # The ReLU has no -0.0 pass: no stored hidden bias may be -0.0.
        for dtype in (np.float32, np.float64):
            hidden, _, _ = _decode_weights(predictor.mlp.layers, dtype, 2)
            for _, tiled in hidden:
                assert not np.signbit(tiled[tiled == 0]).any()
        counts = (0, 1, 2, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1,
                  2 * SWEEP_CHUNK + 1, 1200)
        for query_row in (5, 6, 7):   # +0.0, -0.0 and mixed queries
            self._assert_oracle(predictor, table, query_row, counts)

    @pytest.mark.parametrize("kind", ["mlp", "dot"])
    def test_nan_and_inf_rows(self, kind):
        rng = np.random.default_rng(23)
        predictor = (MLPPredictor(16, num_layers=3, rng=rng)
                     if kind == "mlp" else DotPredictor())
        table = rng.standard_normal((1100, 16))
        table[3::97] = np.nan
        table[4::97, ::3] = np.inf
        table[5::97, 1::2] = -np.inf
        table[6::97, :4] = [np.nan, -np.nan, np.inf, -np.inf]
        table[8] = -np.inf
        counts = (0, 1, 2, SWEEP_CHUNK, SWEEP_CHUNK + 1, 1100)
        with np.errstate(invalid="ignore"):
            for query_row in (7, 8):   # a finite and an all -inf query
                self._assert_oracle(predictor, table, query_row, counts)


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
