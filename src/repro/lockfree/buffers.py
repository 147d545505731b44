"""The CPU-side buffers of Algorithm 2.

``g'16``: per-parameter accumulated FP16 gradients, deposited by the
backward pass and cleared by the engine's update sweep (Algorithm 2's
updating thread) as it folds them in (lines 12, 15). ``p'16`` is the
engine's paged FP16 parameter copy, which the sweep refreshes with the
FP16-rounded masters (line 13).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import GradientError
from repro.nn.tensor import Tensor, round_fp16


class GradientBuffers:
    """Accumulated-gradient buffers with per-parameter locks."""

    def __init__(self, params: list[Tensor]):
        self._params = list(params)
        self._buffers = [np.zeros_like(p.data) for p in self._params]
        self._locks = [threading.Lock() for _ in self._params]
        self._pending = [0] * len(self._params)

    def __len__(self) -> int:
        return len(self._buffers)

    def accumulate(self, index: int, grad: np.ndarray) -> None:
        """Buffering thread, line 15: ``g'16 <- g'16 + g16``.

        The float32 sum is rounded to its nearest float16 value
        (``round_fp16``, bit-identical to a float16 store), mirroring the
        buffer's half-precision storage. ``grad`` must be float32.
        Gradients often land in float16's subnormal range, where the
        kernel avoids numpy's slow float->half path.
        """
        if grad.shape != self._buffers[index].shape:
            raise GradientError(
                f"gradient shape {grad.shape} does not match buffer "
                f"{self._buffers[index].shape}"
            )
        with self._locks[index]:
            self._buffers[index] = round_fp16(self._buffers[index] + grad)
            self._pending[index] += 1

    def accumulate_all(self, params: list[Tensor]) -> None:
        """Deposit every parameter's ``.grad`` (the GPU's offload step)."""
        for index, param in enumerate(params):
            if param.grad is not None:
                self.accumulate(index, param.grad)

    def drain(self, index: int) -> tuple[np.ndarray, int]:
        """Updating thread, lines 5+12: take the accumulated gradient and
        clear the buffer. Returns (the accumulated gradient, now the
        caller's, and the iterations folded in)."""
        with self._locks[index]:
            grad = self._buffers[index]
            count = self._pending[index]
            self._buffers[index] = np.zeros(grad.shape, grad.dtype)
            self._pending[index] = 0
        return grad, count

    def peek(self, index: int) -> tuple[np.ndarray, int]:
        """The accumulated gradient (a copy) and its count, left in place."""
        with self._locks[index]:
            return self._buffers[index].copy(), self._pending[index]

    def load(self, index: int, grad: np.ndarray, count: int) -> None:
        """Replace the accumulated gradient and its count (a restore)."""
        with self._locks[index]:
            self._buffers[index][...] = grad
            self._pending[index] = count

    def pending(self, index: int) -> int:
        with self._locks[index]:
            return self._pending[index]

    @property
    def has_uncleared(self) -> bool:
        """Algorithm 2 line 2's loop condition."""
        return any(self.pending(i) > 0 for i in range(len(self._buffers)))
