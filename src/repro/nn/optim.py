"""Optimizers: Adam, and mixed-precision Adam with FP32 master states.

``MixedPrecisionAdam`` realizes the memory layout of Section 2.1: the model
computes with FP16-rounded parameters while the optimizer maintains FP32
master parameters plus first and second moments — exactly the "Optims"
column of Table 1 (three FP32 tensors per parameter).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GradientError
from repro.nn.tensor import Tensor, round_fp16


class Adam:
    """Adam (Kingma & Ba 2015) over FP32 parameters."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        #: shape -> two float32 arrays for ``_apply``'s temporaries.
        self._scratch: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def step(self) -> None:
        self.t += 1
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            self._apply(param.data, param.grad, self.m[i], self.v[i])

    def _apply(self, data: np.ndarray, grad: np.ndarray,
               m: np.ndarray, v: np.ndarray) -> None:
        scratch = self._scratch.get(data.shape)
        if scratch is None:
            scratch = self._scratch[data.shape] = (
                np.empty(data.shape, np.float32), np.empty(data.shape, np.float32)
            )
        step, denom = scratch
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        m *= self.beta1
        np.multiply(1 - self.beta1, grad, out=step)
        m += step
        v *= self.beta2
        np.multiply(1 - self.beta2, grad, out=step)
        step *= grad
        v += step
        # data -= lr * mhat / (sqrt(vhat) + eps)
        np.divide(m, 1 - self.beta1**self.t, out=step)
        np.divide(v, 1 - self.beta2**self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.multiply(self.lr, step, out=step)
        step /= denom
        data -= step

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()


class MixedPrecisionAdam(Adam):
    """Adam with FP32 master weights feeding FP16-rounded model weights.

    The optimizer owns the FP32 master copy; after each step the model's
    parameters are refreshed with the FP16-rounded master values,
    mirroring ``cast(p32, FP16)`` on line 13 of Algorithm 2. Once
    ``initialize`` wraps it, the engine's pages hold ``master``/``m``/``v``
    instead: each entry is ``None`` and the engine's sweep calls ``_apply``
    on one layer's staged states at a time.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3, **kwargs):
        super().__init__(params, lr=lr, **kwargs)
        self.master = [p.data.astype(np.float32).copy() for p in self.params]

    def step(self) -> None:
        self.t += 1
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            if param.grad.shape != self.master[i].shape:
                raise GradientError(
                    f"gradient shape {param.grad.shape} does not match "
                    f"master {self.master[i].shape}"
                )
            self._apply(self.master[i], param.grad, self.m[i], self.v[i])
            param.data[...] = round_fp16(self.master[i])

    def bump_step(self) -> None:
        """Advance the bias-correction step counter by one sweep."""
        self.t += 1
