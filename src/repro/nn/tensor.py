"""A small reverse-mode automatic differentiation engine on numpy.

This is the substrate that replaces PyTorch's autograd in the paper's
implementation.  It supports exactly the operations GNN link-prediction
training needs: dense linear algebra, elementwise nonlinearities,
row gather/scatter, segment reductions (the message-passing primitive),
sparse-matrix products and dropout.

Design notes
------------
* A :class:`Tensor` wraps a ``float64`` numpy array.  Gradients are
  accumulated into ``tensor.grad`` during :meth:`Tensor.backward`.
* The graph is recorded eagerly: every op returns a new ``Tensor``
  holding its parents and a closure that propagates the output gradient
  to the parents.  ``backward`` runs a topological sort.
* A backward closure computes only gradients a ``requires_grad``
  operand will read: a constant operand's share (``grad @ W.T`` into
  raw input features, ``grad * h`` into an edge-weight factor) is never
  formed, since ``_accumulate`` would discard it.
* Everything is float64 to make finite-difference gradient checks tight;
  feature payload sizes in the communication model are accounted
  separately (float32, as shipped on the wire).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from ..rng import ensure_rng

Array = np.ndarray

def _as_array(value) -> Array:
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: Array, shape: Tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the autodiff graph.

    Parameters with ``requires_grad=True`` accumulate gradients;
    intermediate results inherit ``requires_grad`` from their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data: Array = _as_array(data)
        self.grad: Optional[Array] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple["Tensor", ...] = ()
        self._backward: Optional[Callable[[Array], None]] = None

    # -- construction of graph nodes -----------------------------------

    @staticmethod
    def _result(data: Array, parents: Sequence["Tensor"],
                backward: Callable[[Array], None]) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: Array) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # One pass instead of zeros then add; ``grad + 0.0``
            # normalises ``-0.0`` exactly as ``0.0 + grad`` does.
            self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += grad

    # -- basic properties ----------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    def item(self) -> float:
        """The single scalar value of a 0-d/1-element tensor."""
        return float(self.data)

    def numpy(self) -> Array:
        """The underlying ndarray (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """A tensor sharing this data but cut off from the tape."""
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Tensor(shape={self.data.shape}, "
                f"requires_grad={self.requires_grad})")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor._result(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: Array) -> None:
            self._accumulate(-grad)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(grad * self.data, other.data.shape))

        return Tensor._result(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(
                    -grad * self.data / (other.data ** 2), other.data.shape))

        return Tensor._result(data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(grad: Array) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._result(data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        data = self.data @ other.data

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return Tensor._result(data, (self, other), backward)

    # -- shape ops -------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        """Reshaped tensor (differentiable)."""
        original = self.data.shape
        data = self.data.reshape(*shape)

        def backward(grad: Array) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._result(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        """Matrix transpose (differentiable)."""
        data = self.data.T

        def backward(grad: Array) -> None:
            self._accumulate(grad.T)

        return Tensor._result(data, (self,), backward)

    def sum(self, axis: Optional[int] = None,
            keepdims: bool = False) -> "Tensor":
        """Sum reduction (differentiable)."""
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: Array) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._result(data, (self,), backward)

    def mean(self, axis: Optional[int] = None,
             keepdims: bool = False) -> "Tensor":
        """Mean reduction (differentiable)."""
        count = (self.data.size if axis is None
                 else self.data.shape[axis])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- autodiff --------------------------------------------------------

    def backward(self, grad: Optional[Array] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar outputs (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a non-differentiable tensor")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be given for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        topo: List[Tensor] = []
        visited: set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


# ----------------------------------------------------------------------
# free functions (ops that read more naturally as functions)
# ----------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit (NaN propagates, as in ``np.maximum``)."""
    data = np.maximum(x.data, 0.0)
    data += 0.0   # -0.0 -> +0.0, i.e. the bits of ``np.where(x > 0, x, 0.0)``

    def backward(grad: Array) -> None:
        x._accumulate(grad * (x.data > 0))

    return Tensor._result(data, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU with the given negative-side slope."""
    mask = x.data > 0
    data = np.where(mask, x.data, negative_slope * x.data)

    def backward(grad: Array) -> None:
        x._accumulate(grad * np.where(mask, 1.0, negative_slope))

    return Tensor._result(data, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit."""
    mask = x.data > 0
    exp_term = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    data = np.where(mask, x.data, exp_term)

    def backward(grad: Array) -> None:
        x._accumulate(grad * np.where(mask, 1.0, exp_term + alpha))

    return Tensor._result(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    out = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: Array) -> None:
        x._accumulate(grad * out * (1.0 - out))

    return Tensor._result(out, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    out = np.tanh(x.data)

    def backward(grad: Array) -> None:
        x._accumulate(grad * (1.0 - out ** 2))

    return Tensor._result(out, (x,), backward)


def exp(x: Tensor) -> Tensor:
    """Element-wise exponential."""
    out = np.exp(x.data)

    def backward(grad: Array) -> None:
        x._accumulate(grad * out)

    return Tensor._result(out, (x,), backward)


def log(x: Tensor) -> Tensor:
    """Element-wise natural logarithm."""
    data = np.log(x.data)

    def backward(grad: Array) -> None:
        x._accumulate(grad / x.data)

    return Tensor._result(data, (x,), backward)


def _scatter_add_rows(index: Array, values: Array, num_rows: int) -> Array:
    """Ordered scatter-add: ``out[index[k]] += values[k]`` for ``k = 0,
    1, ...`` into zeros of ``num_rows`` rows.

    Built as the product of a constant sparse matrix with one unit
    entry per column (``S[index[k], k] = 1``) and ``values``: the CSC
    kernel walks columns in increasing ``k`` and adds ``1.0 *
    values[k]`` into row ``index[k]`` of a zero-initialised result —
    the accumulation order and start value of ``np.add.at``, so the
    result is bit-identical to it (signed zeros included).
    """
    shape = (num_rows,) + values.shape[1:]
    count = index.size
    if count:
        lowest, highest = int(index.min()), int(index.max())
        if lowest < 0 or highest >= num_rows:
            bad = lowest if lowest < 0 else highest
            raise ValueError(
                f"row id {bad} outside [0, {num_rows}) in scatter-add")
    if values.size == 0:
        return np.zeros(shape, dtype=np.float64)
    if values.ndim == 1:
        # bincount adds weights in the same increasing-k order.
        return np.bincount(index, weights=values, minlength=num_rows)
    scatter = sp.csc_array(
        (np.ones(count), index, np.arange(count + 1)),
        shape=(num_rows, count))
    return (scatter @ values.reshape(count, -1)).reshape(shape)


def gather(x: Tensor, index: Array) -> Tensor:
    """Row gather ``x[index]``; backward is scatter-add."""
    index = np.asarray(index, dtype=np.int64)
    data = x.data[index]

    def backward(grad: Array) -> None:
        if not x.requires_grad:
            return
        x._accumulate(_scatter_add_rows(
            index.ravel(), grad.reshape((index.size,) + x.data.shape[1:]),
            x.data.shape[0]))

    return Tensor._result(data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: Array) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            sl = [slice(None)] * grad.ndim
            sl[axis] = slice(start, stop)
            t._accumulate(grad[tuple(sl)])

    return Tensor._result(data, tuple(tensors), backward)


def segment_sum(x: Tensor, segment_ids: Array, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets.

    This is the message-passing reduction: ``out[s] = sum of x[i] for
    all i with segment_ids[i] == s``.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = _scatter_add_rows(segment_ids, x.data, num_segments)

    def backward(grad: Array) -> None:
        x._accumulate(grad[segment_ids])

    return Tensor._result(out, (x,), backward)


def segment_mean(x: Tensor, segment_ids: Array, num_segments: int) -> Tensor:
    """Mean-reduce rows of ``x`` per segment (empty segments yield 0)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    safe = np.maximum(counts, 1.0)
    summed = segment_sum(x, segment_ids, num_segments)
    inv = Tensor((1.0 / safe)[:, None] if x.data.ndim > 1 else 1.0 / safe)
    return summed * inv


def segment_softmax(scores: Tensor, segment_ids: Array,
                    num_segments: int) -> Tensor:
    """Softmax over each segment (GAT attention normalization).

    ``scores`` is 1-D or 2-D with leading dim = number of edges; the
    softmax runs independently per destination segment (and per trailing
    column, e.g. attention head).
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    data = scores.data
    # Per-segment max for numerical stability (constant wrt gradient).
    seg_max = np.full((num_segments,) + data.shape[1:], -np.inf)
    np.maximum.at(seg_max, segment_ids, data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = scores - Tensor(seg_max[segment_ids])
    exp_scores = exp(shifted)
    denom = segment_sum(exp_scores, segment_ids, num_segments)
    denom_safe = denom + 1e-16
    return exp_scores / gather(denom_safe, segment_ids)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp_x = np.exp(shifted)
    out = exp_x / exp_x.sum(axis=axis, keepdims=True)

    def backward(grad: Array) -> None:
        # d softmax: out * (grad - sum(grad * out))
        inner = (grad * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (grad - inner))

    return Tensor._result(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """``log(softmax(x))`` computed stably via the log-sum-exp trick."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def backward(grad: Array) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._result(out, (x,), backward)


def cross_entropy(logits: Tensor, labels: Array) -> Tensor:
    """Mean categorical cross-entropy over integer class labels.

    Not used by link prediction itself (which is binary), but completes
    the op set so the same stack can train node classifiers.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError("logits must be (n, c) with labels of shape (n,)")
    logp = log_softmax(logits, axis=1)
    picked = gather_cols(logp, labels)
    return -picked.mean()


def gather_cols(x: Tensor, cols: Array) -> Tensor:
    """Pick one column per row: ``out[i] = x[i, cols[i]]``."""
    cols = np.asarray(cols, dtype=np.int64)
    rows = np.arange(x.shape[0])
    data = x.data[rows, cols]

    def backward(grad: Array) -> None:
        if not x.requires_grad:
            return
        full = np.zeros_like(x.data)
        full[rows, cols] = grad
        x._accumulate(full)

    return Tensor._result(data, (x,), backward)


def sparse_matmul(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """``matrix @ x`` where ``matrix`` is a constant scipy sparse matrix.

    Used by full-graph GCN layers; gradient is ``matrix.T @ grad``.
    """
    matrix = matrix.tocsr()
    data = matrix @ x.data

    def backward(grad: Array) -> None:
        x._accumulate(matrix.T @ grad)

    return Tensor._result(data, (x,), backward)


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    rng = ensure_rng(rng)
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    data = x.data * mask

    def backward(grad: Array) -> None:
        x._accumulate(grad * mask)

    return Tensor._result(data, (x,), backward)


def stack_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack scalar/1-D tensors as rows (used by evaluation code)."""
    data = np.stack([t.data for t in tensors], axis=0)

    def backward(grad: Array) -> None:
        for i, t in enumerate(tensors):
            t._accumulate(grad[i])

    return Tensor._result(data, tuple(tensors), backward)
