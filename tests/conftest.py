"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.graph import Graph, load_dataset, split_edges, synthetic_lp_graph
from repro.nn import (
    GCNConv,
    GINConv,
    Linear,
    SAGEConv,
    Tensor,
    gather,
    relu,
    segment_sum,
)
from repro.nn.gnn import _slice_rows
from repro.nn.models import SWEEP_CHUNK, SWEEP_PANEL


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def path_graph():
    """0 - 1 - 2 - 3 (path on 4 nodes)."""
    return Graph.from_edges(4, [[0, 1], [1, 2], [2, 3]])


@pytest.fixture
def cycle_graph():
    """5-cycle."""
    return Graph.from_edges(5, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]])


@pytest.fixture
def triangle_graph():
    return Graph.from_edges(3, [[0, 1], [1, 2], [0, 2]])


@pytest.fixture
def star_graph():
    """Hub 0 with leaves 1..4."""
    return Graph.from_edges(5, [[0, i] for i in range(1, 5)])


@pytest.fixture
def featured_graph(rng):
    """Small community graph with features, for training tests."""
    return synthetic_lp_graph(num_nodes=120, target_edges=420,
                              feature_dim=16, num_communities=4, rng=rng)


@pytest.fixture
def small_split(featured_graph, rng):
    return split_edges(featured_graph, rng=rng)


@pytest.fixture(scope="session")
def cora_tiny():
    """Session-cached scaled-down cora for integration tests."""
    return load_dataset("cora", scale=0.1, feature_dim=24)


def numeric_gradient(f, x, eps=1e-6):
    """Central-difference gradient of scalar f wrt array x."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


# The compositions the fused ``aggregate`` and ``linear`` tape nodes
# replaced, kept here as their bit-identity oracle.  Their constants
# (edge weights, degree scales) take the input's dtype, as the fused
# layers' do.

def _constant(values, h_src):
    return Tensor(values.astype(h_src.data.dtype))


def unfused_sum(h_src, block):
    """``gather`` -> ``* edge_weight`` -> ``segment_sum``: three nodes."""
    messages = gather(h_src, block.edge_src) * _constant(
        block.edge_weight[:, None], h_src)
    return segment_sum(messages, block.edge_dst, block.num_dst)


def _unfused_linear(self, x):
    out = x @ self.weight
    if self.bias is not None:
        out = out + self.bias
    return out


def _unfused_gcn(self, block, h_src):
    agg = unfused_sum(h_src, block)
    h_self = _slice_rows(h_src, block.num_dst)
    total_weight = np.ones(block.num_dst)
    np.add.at(total_weight, block.edge_dst, block.edge_weight)
    normalized = (agg + h_self) * _constant(1.0 / total_weight[:, None],
                                            h_src)
    return self.linear(normalized)


def _unfused_sage(self, block, h_src):
    summed = unfused_sum(h_src, block)
    denom = np.maximum(np.bincount(
        block.edge_dst, weights=block.edge_weight,
        minlength=block.num_dst), 1e-12)
    h_neigh = summed * _constant(1.0 / denom[:, None], h_src)
    h_self = _slice_rows(h_src, block.num_dst)
    return self.fc_self(h_self) + self.fc_neigh(h_neigh)


def _unfused_gin(self, block, h_src):
    agg = unfused_sum(h_src, block)
    h_self = _slice_rows(h_src, block.num_dst)
    combined = h_self * (self.eps + 1.0) + agg
    return self.fc2(relu(self.fc1(combined)))


@contextmanager
def unfused_layers():
    """``Linear``, ``GCNConv``, ``SAGEConv`` and ``GINConv`` run their
    unfused compositions inside the block."""
    forwards = {Linear: _unfused_linear, GCNConv: _unfused_gcn,
                SAGEConv: _unfused_sage, GINConv: _unfused_gin}
    with pytest.MonkeyPatch.context() as patch:
        for cls, forward in forwards.items():
            patch.setattr(cls, "forward", forward)
        yield


def _taped_result(data, parents, backward):
    """``Tensor._result`` recording the tape whatever scope is held:
    the taped forward the tape-free inference entry points must
    reproduce bit for bit."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


@contextmanager
def taped_forward():
    """Every op records the tape inside the block, ``no_grad`` or not."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tensor, "_result", staticmethod(_taped_result))
        yield


@contextmanager
def recorded_nodes():
    """Yield a one-element list counting the tape nodes ops record
    inside the block (on any thread of this process)."""
    count = [0]
    result = Tensor._result

    def spy(data, parents, backward):
        out = result(data, parents, backward)
        count[0] += bool(out._parents)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tensor, "_result", staticmethod(spy))
        yield count


def assert_one_table(artifact):
    """``artifact`` holds exactly one ``(num_nodes, dim)`` float array
    (float32; float64 for a file from before float32 serving): the
    read-only table it serves, whose bytes its checksum covers, with
    the decoder weights in its dtype."""
    table = artifact.embedding_table()
    held = [value for value in vars(artifact).values()
            if isinstance(value, np.ndarray) and value.ndim == 2]
    assert len(held) == 1 and held[0] is table
    assert table.dtype in (np.float32, np.float64)
    assert not table.flags.writeable
    assert all(value.dtype == table.dtype
               for value in artifact.predictor_state.values())
    assert table.shape == (artifact.num_nodes, artifact.embed_dim)
    payload = artifact._payload()
    for part, nodes in enumerate(artifact.shard_nodes):
        assert (payload[f"shard.{part:04d}.embed"].tobytes()
                == table[nodes].tobytes())


def decode_error_bound(predictor, h_u, h_v, dtype):
    """Per-pair bound on ``|decode - forward|``: the forward-only
    decode of the pairs ``(h_u[i], h_v[i])`` of a float64 table served
    in ``dtype``, against the float64 ``forward`` on the table itself.

    First-order forward error analysis (O(u^2) terms dropped) with
    ``gamma(k) = k u / (1 - k u)`` and ``u`` the unit roundoff of
    ``dtype`` (2^-24 for float32) plus float64's 2^-53 for the
    reference's own rounding.  The Hadamard product of two rounded
    inputs is off by ``gamma(3) |x|``; a layer propagates its input's
    error through ``|W|`` and adds ``gamma(k + 2) (|x| |W| + |b|)`` for
    its ``k``-term sums (zero-padding included), the bias add and the
    rounding of ``W`` and ``b``; ReLU is 1-Lipschitz.
    """
    u = (np.finfo(dtype).eps + np.finfo(np.float64).eps) / 2

    def gamma(k):
        return k * u / (1 - k * u)

    x = h_u * h_v
    err = gamma(3) * np.abs(x)
    layers = predictor.mlp.layers if hasattr(predictor, "mlp") else []
    if not layers:   # a dot product: one row-wise sum
        return err.sum(axis=-1) + gamma(x.shape[-1]) * np.abs(x).sum(-1)
    for i, layer in enumerate(layers):
        weight = layer.weight.data
        bias = 0.0 if layer.bias is None else layer.bias.data
        k = weight.shape[0] + SWEEP_PANEL
        err = err @ np.abs(weight) + gamma(k + 2) * (
            np.abs(x) @ np.abs(weight) + np.abs(bias))
        x = x @ weight + bias
        if i < len(layers) - 1:
            x = np.maximum(x, 0.0)
    return err[:, 0]


# -- reference oracle: the take-based forward-only decode --
#
# ``EdgePredictor.decode`` / ``sweep`` are pinned byte for byte to this
# routine (``tests/test_models.py::TestDecodeOracle``): the decode as it
# was before a sweep read contiguous table slices, stored its hidden
# biases as ``b + 0.0`` and dropped the ReLU's ``+= 0.0`` pass.


def _oracle_decode_weights(layers, dtype):
    hidden = []
    fan_in = layers[0].in_features
    for layer in layers[:-1]:
        width = -(-layer.out_features // SWEEP_PANEL) * SWEEP_PANEL
        weight = np.zeros((fan_in, width), dtype)
        weight[:layer.in_features, :layer.out_features] = layer.weight.data
        bias = None
        if layer.bias is not None:
            bias = np.zeros(width, dtype)
            bias[:layer.out_features] = layer.bias.data
        hidden.append((weight, bias))
        fan_in = width
    last = layers[-1]
    column = np.zeros(fan_in, dtype)
    column[:last.in_features] = last.weight.data[:, 0]
    bias = None if last.bias is None else last.bias.data.astype(dtype)
    return hidden, column, bias


def _oracle_decode_rows(predictor, fill, n, table):
    dtype = table.dtype
    layers = predictor._decode_layers()
    hidden, column, bias = (_oracle_decode_weights(layers, dtype) if layers
                            else ([], None, None))
    scores = np.empty(n, dtype)
    bounds = list(range(0, n, SWEEP_CHUNK)) + [n]
    cap = max(2, min(n, SWEEP_CHUNK))
    prod = np.empty((cap, table.shape[1]), dtype)
    acts = [np.empty((cap, weight.shape[1]), dtype) for weight, _ in hidden]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        size = stop - start
        x = prod[:max(size, 2)]
        fill(x[:size], start, stop)
        if size == 1:
            x[1] = x[0]
        for (weight, b), buf in zip(hidden, acts):
            y = buf[:x.shape[0]]
            np.matmul(x, weight, out=y)
            if b is not None:
                y += b
            np.maximum(y, 0.0, out=y)
            y += 0.0   # -0.0 -> +0.0, the bits ``relu`` gives
            x = y
        if column is not None:
            x *= column
        np.sum(x[:size], axis=-1, out=scores[start:stop])
    if bias is not None:
        scores += bias
    return scores


def oracle_sweep(predictor, query, table, rows):
    """The scores of ``query`` against ``table[rows]``, gathered."""
    rows = np.asarray(rows, dtype=np.int64)
    query = np.asarray(query, dtype=table.dtype)

    def fill(x, start, stop):
        np.take(table, rows[start:stop], axis=0, out=x, mode="clip")
        x *= query

    return _oracle_decode_rows(predictor, fill, rows.size, table)


def oracle_decode(predictor, table, u, v):
    """The scores of the pairs ``(table[u[i]], table[v[i]])``."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    other = np.empty((min(u.size, SWEEP_CHUNK), table.shape[1]), table.dtype)

    def fill(x, start, stop):
        np.take(table, u[start:stop], axis=0, out=x, mode="clip")
        x *= np.take(table, v[start:stop], axis=0, mode="clip",
                     out=other[:stop - start])

    return _oracle_decode_rows(predictor, fill, u.size, table)


# -- reference oracles: per-parameter optimizer steps and dict means --
#
# The optimizers and the sync layer are pinned bit-for-bit to these
# loops, one array per parameter, as the library computed them before
# a replica's state became one vector
# (``tests/test_parameter_vector.py``).


class OracleSGD:
    """SGD, one parameter array at a time; ``step(grads)`` takes one
    gradient (or ``None``: no step for that array) per parameter."""

    def __init__(self, datas, lr=0.01, momentum=0.0, weight_decay=0.0):
        self.datas = datas
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(d) for d in datas]

    def step(self, grads):
        for data, grad, vel in zip(self.datas, grads, self.velocity):
            if grad is None:
                continue
            # A parameter holds its gradient in its own dtype.
            grad = grad.astype(data.dtype)
            if self.weight_decay:
                grad = grad + self.weight_decay * data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                grad = vel
            data -= self.lr * grad


class OracleAdam:
    """Adam with bias correction, one parameter array at a time; a
    parameter without a gradient skips its moment decay and its step."""

    def __init__(self, datas, lr=0.001, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.datas = datas
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(d) for d in datas]
        self.v = [np.zeros_like(d) for d in datas]

    def step(self, grads):
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for data, grad, m, v in zip(self.datas, grads, self.m, self.v):
            if grad is None:
                continue
            grad = grad.astype(data.dtype)
            if self.weight_decay:
                grad = grad + self.weight_decay * data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def oracle_average_gradients(grads, participating=None):
    """The gradient all-reduce over ``{name: gradient or None}`` dicts:
    each name's present gradients summed from 0 and divided by the
    number of participants; ``None`` where nobody has one."""
    active = [g for i, g in enumerate(grads) if g is not None
              and (participating is None or participating[i])]
    if not active:
        return None
    averaged = {}
    for name in active[0]:
        present = [g[name] for g in active if g[name] is not None]
        averaged[name] = sum(present) / len(active) if present else None
    return averaged


def oracle_average_models(states, participating=None):
    """FedAvg over ``{name: weights}`` dicts: ``np.mean`` per name."""
    included = [sd for i, sd in enumerate(states) if sd is not None
                and (participating is None or participating[i])]
    if not included:
        return None
    return {name: np.mean([sd[name] for sd in included], axis=0)
            for name in included[0]}
