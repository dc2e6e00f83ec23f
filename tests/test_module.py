"""Module system tests: traversal, state dicts, Linear/MLP."""

import numpy as np
import pytest

from repro.nn import MLP, Linear, Module, Parameter, Tensor, relu
from repro.nn.module import xavier_uniform


class TinyNet(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(4, 3, rng=rng)
        self.fc2 = Linear(3, 1, rng=rng)
        self.extra = Parameter(np.zeros(2))
        self.stack = [Linear(2, 2, rng=rng), Linear(2, 2, rng=rng)]

    def forward(self, x):
        return self.fc2(relu(self.fc1(x)))


class TestTraversal:
    def test_named_parameters_paths(self, rng):
        net = TinyNet(rng)
        names = {n for n, _ in net.named_parameters()}
        assert "fc1.weight" in names
        assert "fc1.bias" in names
        assert "extra" in names
        assert "stack.0.weight" in names
        assert "stack.1.bias" in names

    def test_parameters_count(self, rng):
        net = TinyNet(rng)
        # fc1: 12+3, fc2: 3+1, extra: 2, stack: 2*(4+2)
        assert net.num_parameters() == 15 + 4 + 2 + 12

    def test_parameter_nbytes(self, rng):
        net = TinyNet(rng)
        assert net.parameter_nbytes() == net.num_parameters() * 4

    def test_modules_recursion(self, rng):
        net = TinyNet(rng)
        mods = list(net.modules())
        assert net in mods
        assert net.fc1 in mods
        assert net.stack[1] in mods


class TestTrainEval:
    def test_zero_grad(self, rng):
        net = TinyNet(rng)
        x = Tensor(rng.standard_normal((5, 4)))
        net(x).sum().backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert net.fc1.weight.grad is None


class TestStateDict:
    def test_roundtrip(self, rng):
        a, b = TinyNet(rng), TinyNet(np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(),
                                    b.named_parameters()):
            assert np.allclose(pa.data, pb.data)

    def test_state_dict_is_copy(self, rng):
        net = TinyNet(rng)
        sd = net.state_dict()
        sd["fc1.weight"][:] = 0.0
        assert not np.allclose(net.fc1.weight.data, 0.0)

    def test_missing_key_rejected(self, rng):
        net = TinyNet(rng)
        sd = net.state_dict()
        del sd["extra"]
        with pytest.raises(KeyError):
            net.load_state_dict(sd)

    def test_unexpected_key_rejected(self, rng):
        net = TinyNet(rng)
        sd = net.state_dict()
        sd["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            net.load_state_dict(sd)

    def test_shape_mismatch_rejected(self, rng):
        net = TinyNet(rng)
        sd = net.state_dict()
        sd["extra"] = np.zeros(5)
        with pytest.raises(ValueError):
            net.load_state_dict(sd)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 7, rng=rng)
        out = layer(Tensor(rng.standard_normal((3, 4))))
        assert out.shape == (3, 7)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((1, 4))))
        assert np.allclose(out.data, 0.0)

    def test_xavier_limits(self, rng):
        w = xavier_uniform((100, 100), rng)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= limit
        assert w.std() == pytest.approx(limit / np.sqrt(3), rel=0.1)


class TestMLP:
    def test_depth(self, rng):
        mlp = MLP([4, 8, 8, 1], rng=rng)
        assert len(mlp.layers) == 3
        out = mlp(Tensor(rng.standard_normal((5, 4))))
        assert out.shape == (5, 1)

    def test_requires_two_dims(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng=rng)

    def test_gradients_flow(self, rng):
        mlp = MLP([3, 5, 1], rng=rng)
        out = mlp(Tensor(rng.standard_normal((4, 3)))).sum()
        out.backward()
        for p in mlp.parameters():
            assert p.grad is not None

