"""Module/parameter abstractions (a miniature ``torch.nn``).

Modules own named :class:`Parameter` tensors, support recursive
traversal, and keep a replica's parameters in one
:class:`ParameterVector` the distributed trainers broadcast, average
and step; ``state_dict``/``load_state_dict`` are the name-keyed form
checkpoints store.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..rng import ensure_rng
from .tensor import Tensor, linear, relu


class Parameter(Tensor):
    """A tensor that is part of a model's trainable state; once a
    :class:`ParameterVector` binds it, ``data`` and ``grad`` are views
    of that vector."""

    __slots__ = ("vector", "_grad_view")

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        self.vector: Optional[ParameterVector] = None
        self._grad_view: Optional[np.ndarray] = None

    def _grad_buffer(self) -> np.ndarray:
        if self._grad_view is None:
            return super()._grad_buffer()
        return self._grad_view


class ParameterVector:
    """A replica's parameters as one ``values`` vector and one
    ``grads`` vector, a slice of each per parameter, in the order given,
    in the parameters' dtype (float32 as built; float64 after
    ``Module.astype(np.float64)``).

    A parameter's ``data`` is a view of its ``values`` slice; its
    ``grad`` is ``None`` (no gradient) or a view of its ``grads``
    slice.  Weights change by writing into the vector (:meth:`load`,
    the optimizers, ``Module.load_state_dict``): a rebound ``p.data``
    would leave it.
    """

    def __init__(self, params: Sequence[Parameter]) -> None:
        self.params = list(params)
        if any(p.vector is not None for p in self.params):
            raise ValueError("a parameter belongs to one vector only")
        self.bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self.dtype = np.result_type(np.float32,
                                    *[p.data for p in self.params])
        self.values = self.join([p.data for p in self.params])
        self.grads = np.zeros_like(self.values)
        for p, view, grad in zip(self.params, self.split(self.values),
                                 self.split(self.grads)):
            p.data, p.vector, p._grad_view = view, self, grad

    @classmethod
    def of(cls, params: Sequence[Parameter]) -> "ParameterVector":
        """The vector binding exactly ``params`` (in order), else a new
        one."""
        params = list(params)
        vector = params[0].vector if params else None
        if vector is not None and [id(p) for p in vector.params] == [
                id(p) for p in params]:
            return vector
        return cls(params)

    def split(self, flat: np.ndarray) -> List[np.ndarray]:
        """``flat`` cut into one view per parameter, in its shape."""
        return [flat[lo:hi].reshape(p.data.shape) for p, lo, hi
                in zip(self.params, self.bounds[:-1], self.bounds[1:])]

    def join(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """The inverse of :meth:`split`: one vector in :attr:`dtype`."""
        return np.concatenate(
            [np.zeros(0, self.dtype)] + [np.ravel(a) for a in arrays],
            dtype=self.dtype)

    def load(self, values: np.ndarray) -> None:
        """Write ``values`` into the vector (every view sees them)."""
        self.values[...] = values

    def zero_grad(self) -> None:
        """Every parameter back to no gradient."""
        for p in self.params:
            p.grad = None

    def gradient(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(grads, present)``: the gradient vector (0 on the slice of
        a parameter without a gradient; one assigned to ``p.grad`` as a
        fresh array is copied in) and one flag per parameter."""
        present = np.array([p.grad is not None for p in self.params])
        for p in self.params:
            if p.grad is None:
                p._grad_view.fill(0.0)
            elif p.grad is not p._grad_view:
                p._grad_view[...] = p.grad
                p.grad = p._grad_view
        return self.grads, present

    def set_gradient(self, grads: np.ndarray, present: np.ndarray) -> None:
        """Install a :meth:`gradient` pair (a mean, a push)."""
        self.grads[...] = grads
        for p, ok in zip(self.params, present):
            p.grad = p._grad_view if ok else None


class Module:
    """Base class for all neural-network modules.

    Subclasses register parameters and sub-modules as plain attributes;
    traversal discovers them by introspection, mirroring torch.nn.
    """

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

    @property
    def vector(self) -> ParameterVector:
        """This tree's :class:`ParameterVector`, bound on first use."""
        vector = vars(self).get("_vector")
        if vector is None:
            vector = self._vector = ParameterVector.of(self.parameters())
        return vector

    def astype(self, dtype) -> "Module":
        """Convert every parameter of this tree to ``dtype`` and bind
        them to a new vector (torch's ``.double()`` / ``.float()``);
        returns ``self``.  An optimizer built before keeps the old
        vector, so build it after."""
        params = self.parameters()
        for p in params:
            p.vector = p._grad_view = p.grad = None
            p.data = p.data.astype(dtype)
        for m in self.modules():
            vars(m).pop("_vector", None)
        ParameterVector.of(params)
        return self

    # -- gradients ---------------------------------------------------------

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for p in self.parameters():
            p.zero_grad()

    # -- (de)serialization -------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter arrays, keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Copy arrays from ``state`` into the matching parameters, in
        place: a parameter stays a view of its replica's vector."""
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
            # Between steps no tape holds the weights: the sanctioned
            # in-place write.
            p.data[...] = state[name]  # lint: disable=R003

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
    """Glorot/Xavier uniform initialization, in float32."""
    fan_in, fan_out = shape[0], shape[1]
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


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
        self.bias = (Parameter(np.zeros(out_features, dtype=np.float32))
                     if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        """Affine transform ``x @ W + b`` (one tape node)."""
        return linear(x, self.weight, self.bias)


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between layers."""

    def __init__(self, dims: List[int], bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        rng = ensure_rng(rng)
        self.layers = [Linear(d_in, d_out, bias=bias, rng=rng)
                       for d_in, d_out in zip(dims[:-1], dims[1:])]

    def forward(self, x: Tensor) -> Tensor:
        """Apply the layers with ReLU between them."""
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = relu(x)
        return x
