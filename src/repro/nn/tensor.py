"""Reverse-mode autograd over numpy arrays.

A deliberately small, explicit implementation: every differentiable
operation records its parents and a backward closure; ``backward()`` walks
the tape in reverse topological order. Broadcasting follows numpy rules,
with gradients un-broadcast back to the operand shapes.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.errors import GradientError

_grad_enabled = True

#: Count of tape nodes created since process start — observability hook
#: used to verify that activation recomputation actually shrinks the
#: forward-pass graph (Section 4.2's recompute technique).
tape_nodes_created = 0

@contextlib.contextmanager
def no_grad():
    """Disable graph construction (evaluation / parameter updates)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


_F16_EXPONENT_MASK = np.uint32(0x7F800000)
#: float32 bit patterns of float16's smallest normal binade (2**-14) and
#: its largest (2**15): the clamp that gives subnormals and the top
#: binade their float16 spacing.
_F16_MIN_BINADE = np.uint32(0x38800000)
_F16_MAX_BINADE = np.uint32(0x47000000)
#: Added to a binade's bit pattern 2**e, gives C = 1.5 * 2**(e + 13),
#: whose float32 ULP is 2**(e - 10), the float16 ULP of binade e.
_F16_ROUNDING_SHIFT = np.uint32((13 << 23) | 0x00400000)
#: Scaling a rounded value by 2**112 overflows exactly when it is past
#: float16's range (>= 2**16); scaling back by 2**-112 is then exact.
_F16_OVERFLOW_UP = np.float32(2.0**112)
_F16_OVERFLOW_DOWN = np.float32(2.0**-112)
#: Below this many elements numpy's own float16 cast is cheaper than the
#: kernel's nine numpy calls (5-15 us of fixed cost, against ~5 ns saved
#: per normal element and ~100 ns per subnormal one; EXPERIMENTS.md,
#: "FP16 casts").
FP16_KERNEL_MIN_SIZE = 2048


def round_fp16(array: np.ndarray) -> np.ndarray:
    """Round a float32 array to the nearest IEEE half, returned as float32.

    Bit-identical to numpy's round trip through ``np.float16`` and back
    (a NaN stays a NaN; its payload is not kept), without numpy's
    float->half routine, which takes 90-130 ns per element on values in
    float16's subnormal range against ~6 ns on normal ones. The kernel
    uses float32 arithmetic only: each element's binade 2**e, clamped to
    [2**-14, 2**15], gives ``C = 1.5 * 2**(e + 13)``, and ``(x + C) - C``
    rounds ``x`` to the float16 grid of that binade, ties to even (C is
    an even multiple of the grid step, so this holds for negative ``x``
    too). A scale by 2**112 and back turns results past 65504 (inputs
    >= 65520) into inf, with numpy's overflow warning as its cast gives,
    and ``copysign`` restores the sign of zeros. Arrays smaller than
    ``FP16_KERNEL_MIN_SIZE`` take numpy's cast, which is cheaper there
    and gives the same bits. Only float32 is accepted: a float64 caller
    would otherwise be rounded twice. As any float arithmetic on one
    does, a signalling NaN input raises numpy's invalid-value warning.
    """
    if array.dtype != np.float32:
        raise TypeError(f"round_fp16 takes float32, not {array.dtype}")
    if array.size < FP16_KERNEL_MIN_SIZE:
        half = array.astype(np.float16)
        return half.astype(np.float32)
    shift = np.bitwise_and(array.view(np.uint32), _F16_EXPONENT_MASK)
    np.maximum(shift, _F16_MIN_BINADE, out=shift)
    np.minimum(shift, _F16_MAX_BINADE, out=shift)
    shift += _F16_ROUNDING_SHIFT
    shift = shift.view(np.float32)
    out = np.add(array, shift)
    out -= shift
    out *= _F16_OVERFLOW_UP
    out *= _F16_OVERFLOW_DOWN
    return np.copysign(out, array, out=out)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array with an optional gradient tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _grad_enabled
        self.name = name
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            global tape_nodes_created
            tape_nodes_created += 1
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float32), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Shape and metadata
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(grad)
            if b.requires_grad:
                b._accumulate(grad)

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad, a=self):
            if a.requires_grad:
                a._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(grad * b.data)
            if b.requires_grad:
                b._accumulate(grad * a.data)

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(grad / b.data)
            if b.requires_grad:
                b._accumulate(-grad * a.data / (b.data * b.data))

        return self._make(self.data / other.data, (self, other), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(grad @ np.swapaxes(b.data, -1, -2))
            if b.requires_grad:
                b._accumulate(np.swapaxes(a.data, -1, -2) @ grad)

        return self._make(self.data @ other.data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        def backward(grad, a=self, n=float(exponent)):
            if a.requires_grad:
                a._accumulate(grad * n * np.power(a.data, n - 1))

        return self._make(np.power(self.data, exponent), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad, a=self, ax=axis, kd=keepdims):
            if not a.requires_grad:
                return
            g = np.asarray(grad)
            if ax is not None and not kd:
                g = np.expand_dims(g, ax)
            a._accumulate(np.broadcast_to(g, a.data.shape))

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(grad, a=self):
            if a.requires_grad:
                a._accumulate(np.asarray(grad).reshape(a.data.shape))

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)

        def backward(grad, a=self, inv=tuple(inverse)):
            if a.requires_grad:
                a._accumulate(np.transpose(np.asarray(grad), inv))

        return self._make(np.transpose(self.data, axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, key) -> "Tensor":
        def backward(grad, a=self, k=key):
            if a.requires_grad:
                full = np.zeros_like(a.data)
                np.add.at(full, k, np.asarray(grad))
                a._accumulate(full)

        return self._make(self.data[key], (self,), backward)

    # ------------------------------------------------------------------
    # Nonlinearities used by the layers
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad, a=self, o=out_data):
            if a.requires_grad:
                a._accumulate(grad * o)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad, a=self):
            if a.requires_grad:
                a._accumulate(grad / a.data)

        return self._make(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad, a=self, o=out_data):
            if a.requires_grad:
                a._accumulate(grad * (1.0 - o * o))

        return self._make(out_data, (self,), backward)

    def cast_fp16(self) -> "Tensor":
        """Mixed-precision cast: round values through IEEE half precision.

        The paper "stores the model states in FP32 while computes in
        BF16" (Section 6.1); this reproduction computes in FP16 instead,
        for its stronger (more visible) rounding. The rounding is real
        (``round_fp16``: each value becomes its nearest float16, bit for
        bit), so half-precision quantization effects appear in training,
        while the graph stays float32 for numpy efficiency. The gradient is the straight-through identity,
        as in standard mixed-precision training.
        """
        out_data = round_fp16(self.data)

        def backward(grad, a=self):
            if a.requires_grad:
                a._accumulate(grad)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise GradientError("called backward() on a non-differentiable tensor")
        if grad is None:
            if self.data.size != 1:
                raise GradientError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
