"""Optimizers (SGD and Adam).

The paper trains with Adam at learning rate 0.001; plain SGD is kept
because the distributed analysis (Algorithm 1 line 30) is written in
terms of an SGD step on averaged gradients.

Both step their parameters' :class:`~repro.nn.module.ParameterVector`
elementwise and keep their moments as vectors; a parameter without a
gradient is masked out (its moments do not decay, it does not move).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .module import Parameter, ParameterVector


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    #: The moment vectors a subclass keeps (stored as ``{name}.{i}``).
    MOMENTS: Tuple[str, ...] = ()

    def __init__(self, params: Sequence[Parameter]) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.vector = ParameterVector.of(self.params)
        self.moments = {name: np.zeros_like(self.vector.values)
                        for name in self.MOMENTS}

    def zero_grad(self) -> None:
        """Clear the gradient of every tracked parameter."""
        self.vector.zero_grad()

    def step(self) -> None:
        """Apply one update step (subclass hook)."""
        raise NotImplementedError

    def _where(self):
        """The step's ``where=``: elements of parameters with a gradient."""
        present = self.vector.gradient()[1]
        if present.all():
            return True
        return np.repeat(present, np.diff(self.vector.bounds))

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Optimizer state as ``{name: ndarray}`` (scalars as 0-d
        arrays, moments per parameter) so it round-trips through
        :mod:`repro.nn.serialize` alongside the model's state dict —
        required by the fault-tolerance ``restore`` policy, which
        rehydrates a crashed worker's optimizer to the exact
        checkpoint step."""
        state = {"lr": np.asarray(self.lr, dtype=np.float64)}
        parts = [self.vector.split(self.moments[name])
                 for name in self.MOMENTS]
        for i in range(len(self.params)):
            for name, split in zip(self.MOMENTS, parts):
                state[f"{name}.{i}"] = split[i].copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.lr = float(state["lr"])
        for name, moment in self.moments.items():
            moment[...] = self.vector.join(
                [state[f"{name}.{i}"] for i in range(len(self.params))])


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    MOMENTS = ("velocity",)

    def __init__(self, params: Sequence[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay

    def step(self) -> None:
        """One SGD step (momentum/weight decay when configured)."""
        where = self._where()
        weights, grad = self.vector.values, self.vector.grads
        if self.weight_decay:
            grad = grad + self.weight_decay * weights
        if self.momentum:
            vel = self.moments["velocity"]
            np.multiply(vel, self.momentum, out=vel, where=where)
            np.add(vel, grad, out=vel, where=where)
            grad = vel
        np.subtract(weights, self.lr * grad, out=weights, where=where)


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    MOMENTS = ("m", "v")

    def __init__(self, params: Sequence[Parameter], lr: float = 0.001,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0

    def step(self) -> None:
        """One Adam step with bias correction."""
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        where = self._where()
        weights, grad = self.vector.values, self.vector.grads
        m, v = self.moments["m"], self.moments["v"]
        if self.weight_decay:
            grad = grad + self.weight_decay * weights
        np.multiply(m, self.beta1, out=m, where=where)
        np.add(m, (1.0 - self.beta1) * grad, out=m, where=where)
        np.multiply(v, self.beta2, out=v, where=where)
        np.add(v, (1.0 - self.beta2) * grad ** 2, out=v, where=where)
        m_hat = m / bias1
        v_hat = v / bias2
        np.subtract(weights, self.lr * m_hat / (np.sqrt(v_hat) + self.eps),
                    out=weights, where=where)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Learning rate, step count and first/second moment buffers.

        The step count matters: Adam's bias correction depends on ``t``,
        so a rehydrated worker that lost it would take differently
        scaled steps and break restore bit-identity.
        """
        state = super().state_dict()
        return {"lr": state.pop("lr"),
                "step_count": np.asarray(self._step_count, dtype=np.int64),
                **state}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict` output into this optimizer."""
        super().load_state_dict(state)
        self._step_count = int(state["step_count"])
