"""Autograd engine tests: forward values and gradient checks."""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.nn import (
    Linear,
    Tensor,
    concat,
    elu,
    exp,
    gather,
    leaky_relu,
    log,
    no_grad,
    relu,
    segment_mean,
    segment_softmax,
    segment_sum,
    sigmoid,
    tanh,
)

from repro.nn import tensor as tensor_module
from repro.nn.tensor import _unbroadcast

from conftest import numeric_gradient, unfused_layers


def check_grad(build, shapes, seed=0, tol=1e-5):
    """Compare autograd gradients against central differences.

    ``build(tensors) -> Tensor`` must return a scalar-reducible output;
    we reduce with a fixed random projection to get a scalar.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(tensors)
    proj = rng.standard_normal(out.data.shape)

    loss = (out * Tensor(proj)).sum()
    loss.backward()

    for arr, t in zip(arrays, tensors):
        def scalar():
            fresh = [Tensor(a) for a in arrays]
            return float((build(fresh).data * proj).sum())
        num = numeric_gradient(scalar, arr)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


class TestForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        assert np.allclose((a + b).data, 1.0 + np.arange(3.0))

    def test_scalar_ops(self):
        a = Tensor(np.array([2.0]))
        assert (a * 3).data[0] == 6.0
        assert (3 * a).data[0] == 6.0
        assert (a - 1).data[0] == 1.0
        assert (1 - a).data[0] == -1.0
        assert (a / 2).data[0] == 1.0
        assert (-a).data[0] == -2.0
        assert (a ** 2).data[0] == 4.0

    def test_matmul(self):
        a = Tensor(np.eye(2))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose((a @ b).data, b.data)

    def test_reshape_transpose(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert a.reshape(3, 2).shape == (3, 2)
        assert a.T.shape == (3, 2)

    def test_sum_mean(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert a.sum().item() == 15.0
        assert a.mean().item() == 2.5
        assert np.allclose(a.sum(axis=0).data, [3.0, 5.0, 7.0])
        assert np.allclose(a.mean(axis=1).data, [1.0, 4.0])

    def test_activations_values(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        assert np.allclose(relu(x).data, [0.0, 0.0, 2.0])
        assert np.allclose(leaky_relu(x, 0.1).data, [-0.1, 0.0, 2.0])
        assert np.allclose(sigmoid(Tensor(np.array([0.0]))).data, [0.5])
        assert np.allclose(tanh(Tensor(np.array([0.0]))).data, [0.0])
        assert np.allclose(elu(x).data[1:], [0.0, 2.0])
        assert elu(x).data[0] == pytest.approx(np.exp(-1.0) - 1.0)

    def test_relu_bits_match_the_where_form(self):
        """``maximum`` then ``+ 0.0`` gives exactly the bits of the
        reference ``np.where(x > 0, x, 0.0)`` on zeros of both signs,
        infinities and subnormals; only NaN differs — it propagates."""
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, -np.inf, np.inf, tiny, -tiny, 1.5, -2.5,
                      np.finfo(np.float64).max, -np.finfo(np.float64).tiny])
        x = np.concatenate([x, np.random.default_rng(0).standard_normal(64)])
        assert (relu(Tensor(x)).data.tobytes()
                == np.where(x > 0, x, 0.0).tobytes())
        assert not np.signbit(relu(Tensor(np.array([-0.0]))).data[0])
        assert np.isnan(relu(Tensor(np.array([np.nan, 1.0]))).data[0])

    def test_exp_log(self):
        x = Tensor(np.array([1.0, 2.0]))
        assert np.allclose(log(exp(x)).data, x.data)

    def test_gather(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = gather(x, np.array([2, 0, 2]))
        assert np.allclose(out.data, x.data[[2, 0, 2]])

    def test_concat(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        assert concat([a, b], axis=1).shape == (2, 5)

    def test_segment_sum(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = segment_sum(x, np.array([0, 0, 1]), 2)
        assert np.allclose(out.data, [[3.0], [3.0]])

    def test_segment_sum_empty_segment(self):
        x = Tensor(np.array([[1.0]]))
        out = segment_sum(x, np.array([1]), 3)
        assert np.allclose(out.data, [[0.0], [1.0], [0.0]])

    @pytest.mark.parametrize("bad_id", [-1, 3])
    def test_segment_sum_rejects_out_of_range_id(self, bad_id):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError, match=rf"{bad_id} outside \[0, 3\)"):
            segment_sum(x, np.array([0, bad_id]), 3)

    def test_segment_sum_rejects_negative_id_1d(self):
        with pytest.raises(ValueError, match=r"-1 outside \[0, 3\)"):
            segment_sum(Tensor(np.ones(1)), np.array([-1]), 3)

    def test_gather_backward_rejects_negative_id(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        out = gather(x, np.array([-1]))
        with pytest.raises(ValueError, match=r"-1 outside \[0, 3\)"):
            out.backward(np.ones((1, 2)))

    def test_segment_mean(self):
        x = Tensor(np.array([[2.0], [4.0], [8.0]]))
        out = segment_mean(x, np.array([0, 0, 1]), 2)
        assert np.allclose(out.data, [[3.0], [8.0]])

    def test_segment_softmax_normalizes(self):
        scores = Tensor(np.array([[1.0], [2.0], [5.0]]))
        seg = np.array([0, 0, 1])
        out = segment_softmax(scores, seg, 2)
        sums = np.zeros(2)
        np.add.at(sums, seg, out.data.ravel())
        assert np.allclose(sums, 1.0)

    def test_segment_softmax_stability(self):
        scores = Tensor(np.array([[1000.0], [1001.0]]))
        out = segment_softmax(scores, np.array([0, 0]), 1)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data.sum(), 1.0)


class TestBackward:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_backward_nonscalar_needs_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_grad_accumulates(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t.sum() + t.sum()).backward()
        assert np.allclose(t.grad, 2.0)

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        t.sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_detach_breaks_graph(self):
        t = Tensor(np.ones(2), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_diamond_graph_gradient(self):
        # y = x*x + x  reused node; dy/dx = 2x + 1
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x
        y.backward()
        assert np.allclose(x.grad, [7.0])

    def test_second_backward_through_a_tape_raises(self):
        """A second pass used to re-run every closure with the
        intermediates' stale gradients still in place (216, not 72)."""
        w = Tensor([[2.0]], requires_grad=True)
        x = Tensor([[3.0]])
        loss = (relu(x @ w) ** 2).sum()
        loss.backward()
        assert w.grad.tolist() == [[36.0]]
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        assert w.grad.tolist() == [[36.0]]

    def test_backward_frees_the_tape(self):
        x = Tensor(np.ones(2), requires_grad=True)
        hidden = x * 3.0
        hidden.sum().backward()
        assert hidden.grad is None and hidden._parents == ()
        assert x.grad.tolist() == [3.0, 3.0]
        with pytest.raises(RuntimeError, match="already backpropagated"):
            (hidden * 2.0).sum().backward()



class TestNoGrad:
    def test_results_record_no_tape(self):
        w = Tensor(np.array([[2.0, -1.0]]), requires_grad=True)
        x = Tensor(np.array([[3.0], [1.0]]))
        taped = relu(x @ w).sum()
        with no_grad():
            free = relu(x @ w).sum()
        assert free.data.tobytes() == taped.data.tobytes()
        assert not free.requires_grad
        assert free._parents == () and free._backward is None
        with pytest.raises(RuntimeError, match="non-differentiable"):
            free.backward()
        taped.backward()
        assert w.grad.tolist() == [[4.0, 0.0]]

    def test_scopes_nest_and_restore_after_an_exception(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            with no_grad():
                assert not (w * 2.0).requires_grad
            assert not (w * 2.0).requires_grad
        assert (w * 2.0).requires_grad
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("boom")
        assert (w * 2.0).requires_grad

    def test_decorated_function_holds_the_scope_per_call(self):
        w = Tensor(np.ones(2), requires_grad=True)

        @no_grad()
        def double(t):
            return t * 2.0

        assert not double(w).requires_grad
        assert (w * 2.0).requires_grad

    def test_scope_is_per_thread(self):
        """A thread holding the scope does not stop another thread's
        backward."""
        entered, release = threading.Event(), threading.Event()
        seen = []

        def infer():
            with no_grad():
                entered.set()
                release.wait(5.0)
                seen.append((Tensor(np.ones(2), requires_grad=True)
                             * 2.0).requires_grad)

        thread = threading.Thread(target=infer)
        thread.start()
        try:
            assert entered.wait(5.0)
            w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            (w * w).sum().backward()
            assert w.grad.tolist() == [2.0, 4.0]
        finally:
            release.set()
            thread.join(5.0)
        assert seen == [False]


class TestGradcheck:
    def test_add(self):
        check_grad(lambda t: t[0] + t[1], [(3, 2), (3, 2)])

    def test_add_broadcast(self):
        check_grad(lambda t: t[0] + t[1], [(3, 2), (2,)])

    def test_mul(self):
        check_grad(lambda t: t[0] * t[1], [(4,), (4,)])

    def test_div(self):
        def build(t):
            return t[0] / (t[1] * t[1] + 1.0)
        check_grad(build, [(3,), (3,)])

    def test_matmul(self):
        check_grad(lambda t: t[0] @ t[1], [(3, 4), (4, 2)])

    def test_pow(self):
        check_grad(lambda t: (t[0] * t[0] + 1.0) ** 1.5, [(4,)])

    def test_sum_axis(self):
        check_grad(lambda t: t[0].sum(axis=0), [(3, 4)])

    def test_mean(self):
        check_grad(lambda t: t[0].mean(axis=1), [(3, 4)])

    def test_reshape(self):
        check_grad(lambda t: t[0].reshape(2, 6), [(3, 4)])

    def test_transpose(self):
        check_grad(lambda t: t[0].T @ t[1], [(3, 2), (3, 2)])

    def test_sigmoid(self):
        check_grad(lambda t: sigmoid(t[0]), [(5,)])

    def test_tanh(self):
        check_grad(lambda t: tanh(t[0]), [(5,)])

    def test_relu(self):
        # Shift away from the kink for finite differences.
        check_grad(lambda t: relu(t[0] + 5.0), [(4,)])

    def test_leaky_relu(self):
        check_grad(lambda t: leaky_relu(t[0] + 5.0), [(4,)])

    def test_elu(self):
        check_grad(lambda t: elu(t[0] - 5.0), [(4,)])

    def test_exp_log(self):
        check_grad(lambda t: log(exp(t[0]) + 1.0), [(4,)])

    def test_gather(self):
        idx = np.array([0, 2, 2, 1])
        check_grad(lambda t: gather(t[0], idx), [(3, 2)])

    def test_concat(self):
        check_grad(lambda t: concat([t[0], t[1]], axis=1), [(2, 2), (2, 3)])

    def test_segment_sum(self):
        seg = np.array([0, 1, 1, 2])
        check_grad(lambda t: segment_sum(t[0], seg, 3), [(4, 2)])

    def test_segment_mean(self):
        seg = np.array([0, 0, 1, 1])
        check_grad(lambda t: segment_mean(t[0], seg, 2), [(4, 2)])

    def test_segment_softmax(self):
        seg = np.array([0, 0, 1, 1, 1])
        check_grad(lambda t: segment_softmax(t[0], seg, 2), [(5, 1)])

    def test_composite_expression(self):
        def build(t):
            return sigmoid(t[0] @ t[1]) * t[2]
        check_grad(build, [(2, 3), (3, 2), (2, 2)])

    def test_linear_on_stacked_rows(self):
        """A stacked ``(n, 1, in)`` block, as the serve path decodes
        pairs, differentiates like its rows."""
        def build(t):
            layer = Linear(2, 3, rng=np.random.default_rng(0))
            layer.weight, layer.bias = t[1], t[2]
            return layer(t[0])
        check_grad(build, [(4, 1, 2), (2, 3), (3,)])


class CountingArray(np.ndarray):
    """An ndarray that records every ``*``, ``/`` and ``@`` computed on
    it while :attr:`products` is a list (results stay counting)."""

    products = None
    COUNTED = (np.multiply, np.divide, np.matmul)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if (CountingArray.products is not None and method == "__call__"
                and ufunc in self.COUNTED):
            CountingArray.products.append(ufunc.__name__)
        inputs = [x.view(np.ndarray) if isinstance(x, CountingArray) else x
                  for x in inputs]
        out = kwargs.get("out")
        if out:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, CountingArray) else o
                for o in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if out:
            return out[0]
        if isinstance(result, np.ndarray):
            return result.view(CountingArray)
        return result


def _full_add(self, other):
    other = other if isinstance(other, Tensor) else Tensor(other)

    def backward(grad):
        self._accumulate(_unbroadcast(grad, self.data.shape))
        other._accumulate(_unbroadcast(grad, other.data.shape))

    return Tensor._result(self.data + other.data, (self, other), backward)


def _full_mul(self, other):
    other = other if isinstance(other, Tensor) else Tensor(other)

    def backward(grad):
        self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
        other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

    return Tensor._result(self.data * other.data, (self, other), backward)


def _full_div(self, other):
    other = other if isinstance(other, Tensor) else Tensor(other)

    def backward(grad):
        self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
        other._accumulate(_unbroadcast(
            -grad * self.data / (other.data ** 2), other.data.shape))

    return Tensor._result(self.data / other.data, (self, other), backward)


def _full_matmul(self, other):
    def backward(grad):
        self._accumulate(grad @ other.data.T)
        other._accumulate(self.data.T @ grad)

    return Tensor._result(self.data @ other.data, (self, other), backward)


#: Binary ops that form both operands' gradients, as the engine did
#: before closures learned to skip constant operands.
FULL_OPS = {"__add__": _full_add, "__radd__": _full_add,
            "__mul__": _full_mul, "__rmul__": _full_mul,
            "__truediv__": _full_div, "__matmul__": _full_matmul}


def tape_nodes(root):
    """Non-constant nodes (those holding a backward closure) on the tape
    behind ``root``."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
    return count


@pytest.fixture
def counting(monkeypatch):
    """Every array entering the tape counts products; yields a function
    running ``backward`` and returning the products it computed."""
    monkeypatch.setattr(
        tensor_module, "_as_array",
        lambda value: np.asarray(value, dtype=np.float64).view(CountingArray))

    def backward_products(out, grad=None):
        CountingArray.products = []
        try:
            out.backward(grad)
            return Counter(CountingArray.products)
        finally:
            CountingArray.products = None

    return backward_products


class TestBackwardSkipsConstants:
    """A backward closure forms only gradients a ``requires_grad``
    operand reads."""

    @pytest.mark.parametrize("build, products", [
        pytest.param(lambda v, c: v + c, {}, id="var+const"),
        pytest.param(lambda v, c: c + v, {}, id="const+var"),
        pytest.param(lambda v, c: v * c, {"multiply": 1}, id="var*const"),
        pytest.param(lambda v, c: v / c, {"divide": 1}, id="var/const"),
        pytest.param(lambda v, c: c / v, {"multiply": 1, "divide": 1},
                     id="const/var"),
        pytest.param(lambda v, c: v @ c, {"matmul": 1}, id="var@const"),
        pytest.param(lambda v, c: c @ v, {"matmul": 1}, id="const@var"),
    ])
    def test_constant_operand(self, counting, build, products):
        rng = np.random.default_rng(0)
        var = Tensor(rng.random((3, 3)) + 1.0, requires_grad=True)
        const = Tensor(rng.random((3, 3)) + 1.0)
        out = build(var, const)
        assert counting(out, np.ones((3, 3))) == Counter(products)
        assert const.grad is None
        assert var.grad is not None

    def test_sage_mlp_backward(self, counting, monkeypatch, featured_graph):
        """Two SAGE layers + the MLP predictor + BCE, fused against the
        unfused compositions kept in ``conftest``: equal gradient bytes,
        one multiply fewer (``* edge_weight`` and ``* 1/denom`` become
        one ``* scale``) and no other product added.

        Tape nodes: layer 1 goes from 9 (gather, ``* w``, segment_sum,
        ``* 1/denom``, slice, 2 × ``@``, ``+ b``, ``+``) to 5 (aggregate,
        slice, 2 × linear, ``+``); layer 0, whose input is constant,
        from 4 to 3; the MLP's three affine maps from 6 to 3.  Around
        them: relu between the layers, two gathers, ``h_u * h_v``, two
        MLP relus, the reshape and the loss.

        The unfused run also pins the constant-operand skipping of the
        binary ops: layer 0's raw features (one ``grad @ W.T`` per
        linear map) and layer 1's edge-weight and ``1/denom`` factors.
        """
        from repro.nn import bce_with_logits, build_model
        from repro.sampling import NeighborSampler

        graph = featured_graph
        seeds = np.arange(0, 40, 2)
        comp = NeighborSampler([4, 3], rng=np.random.default_rng(1)).sample(
            graph, seeds)
        features = graph.features[comp.input_nodes].astype(np.float64)
        pairs = np.random.default_rng(2).integers(0, seeds.size, (16, 2))
        labels = np.tile([1.0, 0.0], 8)

        def run():
            model = build_model("sage", graph.feature_dim, 8, num_layers=2,
                                seed=0)
            loss = bce_with_logits(
                model(comp, features, pairs[:, 0], pairs[:, 1]), labels)
            nodes = tape_nodes(loss)
            products = counting(loss)
            return nodes, products, {name: p.grad.tobytes()
                                     for name, p in model.named_parameters()}

        nodes, products, grads = run()
        with unfused_layers():
            old_nodes, old_products, old_grads = run()
            with monkeypatch.context() as full:
                for name, op in FULL_OPS.items():
                    full.setattr(Tensor, name, op)
                _, full_products, full_grads = run()
        assert grads == old_grads == full_grads
        around = 1 + 2 + 1 + 2 + 1 + 1
        assert (old_nodes, nodes) == (9 + 4 + 6 + around, 5 + 3 + 3 + around)
        assert old_products - products == Counter(multiply=1)
        assert not products - old_products
        assert full_products - old_products == Counter(matmul=2, multiply=2)
        assert not old_products - full_products
