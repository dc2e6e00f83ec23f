"""Loss functions for link prediction."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def bce_with_logits(logits: Tensor, labels: np.ndarray | Tensor,
                    reduction: str = "mean") -> Tensor:
    """Numerically stable binary cross-entropy on raw edge scores.

    Implements ``mean_i [ max(s,0) - s*y + log(1 + exp(-|s|)) ]`` as a
    fused primitive; the gradient is the classic ``sigmoid(s) - y``.
    This is the paper's training loss (Section II-B / Algorithm 1
    line 27).  The labels and the loss take the logits' dtype.
    """
    s = logits.data
    y = np.asarray(labels.data if isinstance(labels, Tensor) else labels,
                   dtype=s.dtype)
    if s.shape != y.shape:
        raise ValueError(f"logits {s.shape} and labels {y.shape} must align")
    per_sample = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    if reduction == "mean":
        value = per_sample.mean() if per_sample.size else 0.0
        scale = 1.0 / max(per_sample.size, 1)
    elif reduction == "sum":
        value = per_sample.sum()
        scale = 1.0
    elif reduction == "none":
        value = per_sample
        scale = None
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    # Stable sigmoid: exp of a non-positive argument only.
    sig = np.where(s >= 0,
                   1.0 / (1.0 + np.exp(-np.maximum(s, 0.0))),
                   np.exp(np.minimum(s, 0.0))
                   / (1.0 + np.exp(np.minimum(s, 0.0))))

    def backward(grad: np.ndarray) -> None:
        if scale is None:
            logits._accumulate(grad * (sig - y))
        else:
            logits._accumulate(grad * scale * (sig - y))

    return Tensor._result(np.asarray(value, dtype=s.dtype),
                          (logits,), backward)
