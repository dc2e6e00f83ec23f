"""GNN convolution layers: shapes, semantics and gradient flow."""

from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.nn import (
    GATConv,
    GATv2Conv,
    GCNConv,
    SAGEConv,
    Tensor,
    aggregate,
    bce_with_logits,
    build_model,
)
from repro.sampling import Block, ComputationGraph

from conftest import numeric_gradient, unfused_layers, unfused_sum


def make_block(num_src=5, num_dst=2, edges=((2, 0), (3, 0), (4, 1)),
               weights=None):
    """Small bipartite block: src rows 0..num_src-1; first num_dst are
    the destination nodes themselves."""
    edge_src = np.array([e[0] for e in edges])
    edge_dst = np.array([e[1] for e in edges])
    if weights is None:
        weights = np.ones(len(edges))
    return Block(
        src_nodes=np.arange(num_src, dtype=np.int64),
        num_dst=num_dst,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_weight=np.asarray(weights, dtype=np.float64),
    )


@pytest.fixture(params=["gcn", "sage", "gat", "gatv2"])
def conv_factory(request, rng):
    kinds = {
        "gcn": lambda i, o: GCNConv(i, o, rng=rng),
        "sage": lambda i, o: SAGEConv(i, o, rng=rng),
        "gat": lambda i, o: GATConv(i, o, rng=rng),
        "gatv2": lambda i, o: GATv2Conv(i, o, rng=rng),
    }
    return kinds[request.param]


class TestShapesAndGrads:
    def test_output_shape(self, conv_factory, rng):
        conv = conv_factory(4, 6)
        block = make_block()
        out = conv(block, Tensor(rng.standard_normal((5, 4))))
        assert out.shape == (2, 6)

    def test_gradients_reach_all_params(self, conv_factory, rng):
        conv = conv_factory(3, 3)
        block = make_block()
        h = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        conv(block, h).sum().backward()
        for p in conv.parameters():
            assert p.grad is not None
        assert h.grad is not None

    def test_gradcheck_input(self, conv_factory, rng):
        conv = conv_factory(3, 2).astype(np.float64)
        block = make_block()
        x0 = rng.standard_normal((5, 3))
        proj = rng.standard_normal((2, 2))

        def scalar():
            return float((conv(block, Tensor(x0)).data * proj).sum())

        h = Tensor(x0, requires_grad=True)
        out = conv(block, h)
        (out * Tensor(proj)).sum().backward()
        num = numeric_gradient(scalar, x0)
        np.testing.assert_allclose(h.grad, num, rtol=1e-4, atol=1e-5)


class TestGCNSemantics:
    def test_isolated_dst_keeps_self(self, rng):
        """A destination with no in-edges reduces to a Linear of its own
        embedding (self-loop term)."""
        conv = GCNConv(2, 2, rng=rng)
        block = make_block(num_src=2, num_dst=2, edges=())
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = conv(block, Tensor(h))
        expected = conv.linear(Tensor(h)).data
        assert np.allclose(out.data, expected)

    def test_edge_weight_scales_message(self, rng):
        conv = GCNConv(1, 1, rng=rng)
        h = np.array([[0.0], [10.0]])
        light = make_block(num_src=2, num_dst=1, edges=((1, 0),),
                           weights=[0.1])
        heavy = make_block(num_src=2, num_dst=1, edges=((1, 0),),
                           weights=[10.0])
        out_light = conv(light, Tensor(h)).data[0, 0]
        out_heavy = conv(heavy, Tensor(h)).data[0, 0]
        # Weighted-mean aggregation pulls toward the neighbor as weight
        # grows (for positive weight on the neighbor's value).
        ref = conv(make_block(num_src=2, num_dst=1, edges=((1, 0),)),
                   Tensor(h)).data[0, 0]
        assert abs(out_heavy - conv.linear(Tensor([[10.0]])).data[0, 0]) < \
            abs(ref - conv.linear(Tensor([[10.0]])).data[0, 0])
        assert out_light != out_heavy


class TestSAGESemantics:
    def test_mean_aggregation(self, rng):
        conv = SAGEConv(1, 1, rng=rng)
        # two neighbors with values 2 and 4 -> mean 3
        block = make_block(num_src=3, num_dst=1, edges=((1, 0), (2, 0)))
        h = np.array([[0.0], [2.0], [4.0]])
        out = conv(block, Tensor(h)).data
        w_self = conv.fc_self.weight.data[0, 0]
        b = conv.fc_self.bias.data[0]
        w_neigh = conv.fc_neigh.weight.data[0, 0]
        assert out[0, 0] == pytest.approx(0.0 * w_self + b + 3.0 * w_neigh)

    def test_weighted_mean(self, rng):
        conv = SAGEConv(1, 1, rng=rng)
        block = make_block(num_src=3, num_dst=1, edges=((1, 0), (2, 0)),
                           weights=[3.0, 1.0])
        h = np.array([[0.0], [2.0], [4.0]])
        out = conv(block, Tensor(h)).data
        weighted_mean = (3.0 * 2.0 + 1.0 * 4.0) / 4.0
        w_neigh = conv.fc_neigh.weight.data[0, 0]
        b = conv.fc_self.bias.data[0]
        assert out[0, 0] == pytest.approx(b + weighted_mean * w_neigh)

    def test_no_neighbors_zero_aggregate(self, rng):
        conv = SAGEConv(1, 1, rng=rng)
        block = make_block(num_src=1, num_dst=1, edges=())
        h = np.array([[5.0]])
        out = conv(block, Tensor(h)).data
        expected = conv.fc_self(Tensor(h)).data
        assert np.allclose(out, expected)


class TestAttention:
    @pytest.mark.parametrize("cls", [GATConv, GATv2Conv])
    def test_attention_is_convex_combination(self, cls, rng):
        """With a single head, the aggregated message lies in the convex
        hull of the projected neighbor embeddings."""
        conv = cls(2, 2, rng=rng)
        block = make_block(num_src=4, num_dst=1,
                           edges=((1, 0), (2, 0), (3, 0)))
        h = rng.standard_normal((4, 2))
        out = conv(block, Tensor(h)).data[0]
        if cls is GATConv:
            z = conv.fc[0](Tensor(h)).data[1:]
        else:
            z = conv.fc_l[0](Tensor(h)).data[1:]
        lo, hi = z.min(axis=0), z.max(axis=0)
        assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)

    @pytest.mark.parametrize("cls", [GATConv, GATv2Conv])
    def test_multihead_concat(self, cls, rng):
        conv = cls(4, 6, num_heads=3, rng=rng)
        block = make_block()
        out = conv(block, Tensor(rng.standard_normal((5, 4))))
        assert out.shape == (2, 6)

    @pytest.mark.parametrize("cls", [GATConv, GATv2Conv])
    def test_heads_must_divide(self, cls, rng):
        with pytest.raises(ValueError):
            cls(4, 5, num_heads=2, rng=rng)

    @pytest.mark.parametrize("cls", [GATConv, GATv2Conv])
    def test_zero_weight_edge_ignored(self, cls, rng):
        """An edge with near-zero sparsifier weight gets (log-prior)
        attention ~0, so the output matches removing the edge."""
        conv = cls(2, 2, rng=rng)
        h = rng.standard_normal((4, 2))
        with_zero = make_block(num_src=4, num_dst=1,
                               edges=((1, 0), (2, 0)),
                               weights=[1.0, 1e-300])
        without = make_block(num_src=4, num_dst=1, edges=((1, 0),))
        out1 = conv(with_zero, Tensor(h)).data
        out2 = conv(without, Tensor(h)).data
        np.testing.assert_allclose(out1, out2, atol=1e-6)


# -- fused aggregate / linear against the unfused compositions -----------

#: Edge weights: 0, 1, and values like the Spielman-Srivastava sparsifier's
#: ``1 / (keep probability)``.
WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1 / 0.15, 1 / 0.35,
                                     2 / 3, 1e-300]),
                    st.floats(1e-3, 50.0))
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e-300]),
                   st.floats(-10.0, 10.0))


@st.composite
def blocks(draw, num_src, num_dst):
    """Any block over ``num_src`` -> ``num_dst`` rows: unsorted
    destinations, repeated ``(src, dst)`` pairs, destinations without
    in-edges, possibly no edge at all."""
    edges = draw(st.lists(st.tuples(st.integers(0, num_src - 1),
                                    st.integers(0, num_dst - 1)),
                          max_size=12)) if num_dst else []
    weights = draw(st.lists(WEIGHTS, min_size=len(edges),
                            max_size=len(edges)))
    return make_block(num_src, num_dst, edges, weights)


@st.composite
def aggregate_cases(draw):
    num_dst = draw(st.integers(0, 5))
    num_src = num_dst + draw(st.integers(0, 4))
    dim = draw(st.integers(1, 3))
    block = draw(blocks(num_src, num_dst))
    x = draw(hnp.arrays(np.float64, (num_src, dim), elements=VALUES))
    scale = draw(st.none() | hnp.arrays(
        np.float64, num_dst, elements=st.sampled_from([1.0, 0.25, 1e12])
        | st.floats(1e-3, 10.0)))
    upstream = draw(hnp.arrays(np.float64, (num_dst, dim), elements=VALUES))
    return block, x, scale, upstream


@st.composite
def model_cases(draw):
    """A 2-layer computation graph (layer sizes may be equal) and a
    seed for the weights, features and scored pairs."""
    seeds = draw(st.integers(1, 4))
    middle = seeds + draw(st.integers(0, 3))
    inputs = middle + draw(st.integers(0, 4))
    comp = ComputationGraph([draw(blocks(inputs, middle)),
                             draw(blocks(middle, seeds))],
                            seeds=np.arange(seeds))
    return comp, draw(st.integers(0, 2**16))


class TestFusedOracle:
    """``aggregate`` and ``linear`` give the unfused compositions' bits,
    forward and backward.  GCN and GIN have no golden cells, so this is
    their only bit-identity gate."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(aggregate_cases())
    @example((make_block(3, 3, ((2, 1), (0, 1), (2, 1), (1, 0)),
                         [1 / 0.15, 0.0, 1 / 0.15, 1.0]),
              np.array([[1.0], [-0.0], [3.0]]), None,
              np.array([[-0.0], [2.0], [1.0]])))
    @example((make_block(2, 0, ()), np.ones((2, 2)), None,
              np.zeros((0, 2))))
    def test_aggregate(self, case):
        block, x0, scale, upstream = case
        outs = []
        for fused in (True, False):
            x = Tensor(x0, requires_grad=True)
            with np.errstate(invalid="ignore", over="ignore"):
                if fused:
                    out = aggregate(x, block, scale)
                else:
                    out = unfused_sum(x, block)
                    if scale is not None:
                        out = out * Tensor(scale[:, None])
                out.backward(upstream)
            outs.append((out.data.tobytes(), x.grad.tobytes()))
        assert outs[0] == outs[1]

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model_cases(), st.sampled_from(["sage", "gcn", "gin"]))
    def test_two_layer_models(self, case, kind):
        comp, seed = case
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((comp.input_nodes.size, 4))
        features[rng.random(features.shape) < 0.2] = -0.0
        pairs = rng.integers(0, comp.seeds.size, (6, 2))
        labels = np.tile([1.0, 0.0], 3)

        def run():
            model = build_model(kind, 4, 4, num_layers=2, seed=seed)
            h = Tensor(features, requires_grad=True)
            scores = model(comp, h, pairs[:, 0], pairs[:, 1])
            bce_with_logits(scores, labels).backward()
            return scores.data.tobytes(), h.grad.tobytes(), {
                name: p.grad.tobytes()
                for name, p in model.named_parameters()}

        fused = run()
        with unfused_layers():
            assert run() == fused

    @pytest.mark.parametrize("src, dst", [([0, 3], [0, 1]), ([0, -1], [0, 1]),
                                          ([0, 1], [0, 2]), ([0, 1], [-1, 0])])
    def test_aggregate_rejects_out_of_range_ids(self, src, dst):
        block = SimpleNamespace(edge_src=np.array(src), edge_dst=np.array(dst),
                                edge_weight=np.ones(2), num_dst=2)
        with pytest.raises(ValueError, match=r"outside \[0, [23]\)"):
            aggregate(Tensor(np.ones((3, 2))), block)
