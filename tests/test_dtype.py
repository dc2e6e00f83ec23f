"""Training computes in float32, as torch does, and a float64 module
stays float64: every op, convolution, predictor and optimizer step
keeps its operands' dtype in its output, its gradients and its
moments, so no constant an op makes upcasts the computation."""

import numpy as np
import pytest

from conftest import unfused_layers
from repro.nn import (
    SGD,
    Adam,
    Tensor,
    aggregate,
    bce_with_logits,
    build_model,
    concat,
    cross_entropy,
    elu,
    exp,
    gather,
    gather_cols,
    leaky_relu,
    linear,
    log,
    log_softmax,
    relu,
    segment_mean,
    segment_softmax,
    segment_sum,
    sigmoid,
    softmax,
    stack_rows,
    tanh,
)
from repro.nn.models import DotPredictor, MLPPredictor, make_conv
from repro.nn.tensor import _scatter_add_rows
from repro.sampling.blocks import Block, ComputationGraph

DTYPES = [np.float32, np.float64]

#: A 5-source, 3-destination block with weighted, unsorted edges.
BLOCK = Block(np.arange(5), 3, [4, 0, 3, 1, 2, 4], [2, 0, 1, 0, 2, 1],
              [0.5, 1.0, 2.0, 1.5, 1.0, 0.25])
SEGMENTS = np.array([2, 0, 1, 0, 2, 1])


def _draw(shape, dtype, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


#: name -> function of two leaf tensors ``a`` (6, 4) and ``b`` (6, 4).
OPS = {
    "add": lambda a, b: a + b,
    "add_scalar": lambda a, b: a + 0.1,
    "radd_scalar": lambda a, b: 0.1 + a,
    "sub": lambda a, b: a - b,
    "rsub_scalar": lambda a, b: 0.1 - a,
    "neg": lambda a, b: -a,
    "mul": lambda a, b: a * b,
    "mul_scalar": lambda a, b: a * 0.1,
    "div": lambda a, b: a / (b * b + 1.0),
    "pow": lambda a, b: (a * a + 1.0) ** 1.5,
    "matmul": lambda a, b: a @ b.T,
    "reshape": lambda a, b: a.reshape(4, 6),
    "transpose": lambda a, b: a.T,
    "sum": lambda a, b: a.sum(axis=0),
    "mean": lambda a, b: a.mean(axis=1),
    "linear": lambda a, b: linear(a, b.T, b.sum(axis=1)),
    "relu": lambda a, b: relu(a),
    "leaky_relu": lambda a, b: leaky_relu(a),
    "elu": lambda a, b: elu(a),
    "sigmoid": lambda a, b: sigmoid(a),
    "tanh": lambda a, b: tanh(a),
    "exp": lambda a, b: exp(a),
    "log": lambda a, b: log(a * a + 1.0),
    "gather": lambda a, b: gather(a, [5, 0, 5, 2]),
    "concat": lambda a, b: concat([a, b], axis=1),
    "segment_sum": lambda a, b: segment_sum(a, SEGMENTS, 3),
    "segment_mean": lambda a, b: segment_mean(a, SEGMENTS, 4),
    "segment_softmax": lambda a, b: segment_softmax(a, SEGMENTS, 3),
    "aggregate": lambda a, b: aggregate(gather(a, np.arange(5)), BLOCK),
    "aggregate_scaled": lambda a, b: aggregate(
        gather(a, np.arange(5)), BLOCK, scale=np.array([0.5, 1.0, 2.0])),
    "softmax": lambda a, b: softmax(a),
    "log_softmax": lambda a, b: log_softmax(a),
    "cross_entropy": lambda a, b: cross_entropy(a, [0, 3, 1, 2, 2, 0]),
    "gather_cols": lambda a, b: gather_cols(a, [0, 3, 1, 2, 2, 0]),
    "stack_rows": lambda a, b: stack_rows([a.sum(axis=0), b.sum(axis=0)]),
    "bce_float64_labels": lambda a, b: bce_with_logits(
        a.reshape(-1), np.tile([1.0, 0.0], 12)),
    "bce_sum": lambda a, b: bce_with_logits(
        a.reshape(-1), np.ones(24), reduction="sum"),
    "bce_none": lambda a, b: bce_with_logits(
        a.reshape(-1), np.zeros(24), reduction="none"),
}


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("name", sorted(OPS))
def test_ops_keep_the_dtype(name, dtype):
    a = Tensor(_draw((6, 4), dtype, 0), requires_grad=True)
    b = Tensor(_draw((6, 4), dtype, 1), requires_grad=True)
    out = OPS[name](a, b)
    assert out.data.dtype == dtype
    out.sum().backward()
    for leaf in (a, b):
        assert leaf.grad is None or leaf.grad.dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_scatter_add_rows_keeps_the_dtype(dtype):
    index = np.array([2, 0, 2, 1])
    for values in (_draw((4,), dtype), _draw((4, 3), dtype),
                   np.zeros((0, 3), dtype)):
        out = _scatter_add_rows(index[:values.shape[0]], values, 3)
        assert out.dtype == dtype
        expected = np.zeros(out.shape, dtype)
        np.add.at(expected, index[:values.shape[0]], values)
        assert out.tobytes() == expected.tobytes()


def test_python_values_become_float32():
    assert Tensor(1.5).data.dtype == np.float32
    assert Tensor([1, 2]).data.dtype == np.float32
    assert Tensor(np.arange(3)).data.dtype == np.float32
    assert Tensor(np.float64(2.0)).data.dtype == np.float64


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("kind", ["gcn", "sage", "gin", "gat", "gatv2"])
def test_convolutions_keep_the_dtype(kind, dtype):
    conv = make_conv(kind, 4, 6, num_heads=2 if kind.startswith("gat")
                     else 1, rng=np.random.default_rng(0))
    assert all(p.data.dtype == np.float32 for p in conv.parameters())
    conv.astype(dtype)
    h = Tensor(_draw((5, 4), dtype), requires_grad=True)
    out = conv(BLOCK, h)
    assert out.data.dtype == dtype
    out.sum().backward()
    assert h.grad.dtype == dtype
    assert conv.vector.values.dtype == dtype
    for p in conv.parameters():
        assert p.data.dtype == p.grad.dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("predictor", [
    lambda: MLPPredictor(4, num_layers=3, rng=np.random.default_rng(0)),
    DotPredictor], ids=["mlp", "dot"])
def test_predictors_keep_the_dtype(predictor, dtype):
    head = predictor().astype(dtype)
    h_u = Tensor(_draw((7, 4), dtype, 0), requires_grad=True)
    h_v = Tensor(_draw((7, 4), dtype, 1), requires_grad=True)
    scores = head(h_u, h_v)
    assert scores.data.dtype == dtype
    bce_with_logits(scores, np.tile([1.0, 0.0, 1.0], 3)[:7]).backward()
    for t in [h_u, h_v] + head.parameters():
        assert t.grad.dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("make", [
    lambda ps: Adam(ps, lr=0.01, weight_decay=0.1),
    lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=0.01)],
    ids=["adam", "sgd"])
def test_optimizer_steps_keep_the_dtype(make, dtype):
    model = build_model("sage", 4, 6, num_layers=2, seed=0)
    assert model.vector.values.dtype == np.float32
    model.astype(dtype)
    optimizer = make(model.parameters())
    rng = np.random.default_rng(2)
    for _ in range(3):
        optimizer.zero_grad()
        for p in model.parameters():
            p.grad = rng.standard_normal(p.data.shape).astype(dtype)
        optimizer.step()
    vector = model.vector
    assert vector.values.dtype == vector.grads.dtype == dtype
    assert all(m.dtype == dtype for m in optimizer.moments.values())
    state = optimizer.state_dict()
    assert all(v.dtype == dtype for k, v in state.items()
               if k not in ("lr", "step_count"))
    assert all(p.data.dtype == dtype and np.shares_memory(
        p.data, vector.values) for p in model.parameters())


def test_astype_rebinds_the_vector():
    """``astype`` converts the weights exactly and binds them to a new
    vector of that dtype; the way back rounds to float32."""
    model = build_model("gcn", 4, 6, num_layers=2, seed=3)
    before = model.vector
    weights = before.values.copy()
    assert model.astype(np.float64) is model
    assert model.vector is not before
    assert model.vector.values.dtype == np.float64
    assert np.array_equal(model.vector.values, weights)
    model.astype(np.float32)
    assert model.vector.values.tobytes() == weights.tobytes()


@pytest.mark.parametrize("kind", ["sage", "gcn", "gin"])
def test_float32_fused_layers_equal_their_compositions(kind):
    """The fused ``aggregate`` / ``linear`` nodes give the unfused
    compositions' bits in float32 too, forward and backward."""
    rng = np.random.default_rng(4)
    inner = Block(np.arange(9), 5, rng.integers(0, 9, 20),
                  rng.integers(0, 5, 20), rng.uniform(0.2, 2.0, 20))
    outer = Block(np.arange(5), 3, rng.integers(0, 5, 12),
                  rng.integers(0, 3, 12), rng.uniform(0.2, 2.0, 12))
    comp = ComputationGraph(blocks=[inner, outer], seeds=np.arange(3))
    features = _draw((9, 4), np.float32, 5)
    pairs = np.array([[0, 1], [2, 0], [1, 2]])

    def run():
        model = build_model(kind, 4, 4, num_layers=2, seed=6)
        h = Tensor(features, requires_grad=True)
        scores = model(comp, h, pairs[:, 0], pairs[:, 1])
        bce_with_logits(scores, [1.0, 0.0, 1.0]).backward()
        assert scores.data.dtype == np.float32
        return scores.data.tobytes(), h.grad.tobytes(), [
            p.grad.tobytes() for p in model.parameters()]

    fused = run()
    with unfused_layers():
        assert run() == fused
