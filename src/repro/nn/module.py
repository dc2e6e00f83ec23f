"""Module/parameter abstractions (a miniature ``torch.nn``).

Modules own named :class:`Parameter` tensors, support recursive
traversal for optimizers, and expose ``state_dict``/``load_state_dict``
used by the distributed trainers for model averaging and broadcasting
the initial weights to every worker.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..rng import ensure_rng
from .tensor import Tensor, dropout, linear, relu


class Parameter(Tensor):
    """A tensor that is part of a model's trainable state."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural-network modules.

    Subclasses register parameters and sub-modules as plain attributes;
    traversal discovers them by introspection, mirroring torch.nn.
    """

    def __init__(self) -> None:
        self.training = True

    # -- traversal -------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` over this module tree."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def parameters(self) -> List[Parameter]:
        """Every parameter of this module tree, in traversal order."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- mode / gradients -------------------------------------------------

    def train(self) -> "Module":
        """Switch the module tree to training mode."""
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        """Switch the module tree to inference mode."""
        for m in self.modules():
            m.training = False
        return self

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for p in self.parameters():
            p.zero_grad()

    # -- (de)serialization -------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter arrays, keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Copy arrays from ``state`` into the matching parameters."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{p.data.shape} vs {state[name].shape}")
            # astype copies, so the model never aliases ``state``.
            p.data = state[name].astype(np.float64)

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.data.size for p in self.parameters())

    def parameter_nbytes(self, itemsize: int = 4) -> int:
        """Wire size of the model (float32 by default), used by the
        communication model for weight broadcast / averaging."""
        return self.num_parameters() * itemsize

    # -- calling ------------------------------------------------------------

    def forward(self, *args, **kwargs):
        """Compute the module's output (subclass hook)."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def xavier_uniform(shape: Tuple[int, int],
                   rng: np.random.Generator,
                   gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = shape[0], shape[1]
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Affine transform ``x @ W + b`` (one tape node)."""
        return linear(x, self.weight, self.bias)


class Dropout(Module):
    """Stateful dropout layer honoring the module's train/eval mode."""

    def __init__(self, p: float = 0.5,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.p = p
        self.rng = ensure_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        """Randomly zero entries of ``x`` in training mode."""
        return dropout(x, self.p, self.training, self.rng)


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between layers."""

    def __init__(self, dims: List[int], bias: bool = True,
                 dropout_p: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        rng = ensure_rng(rng)
        self.layers = [Linear(d_in, d_out, bias=bias, rng=rng)
                       for d_in, d_out in zip(dims[:-1], dims[1:])]
        self.dropout = Dropout(dropout_p, rng=rng) if dropout_p > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        """Apply the layers with ReLU (and dropout) between them."""
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = relu(x)
                if self.dropout is not None:
                    x = self.dropout(x)
        return x
