"""Fused differentiable kernels of the Transformer layer.

Each function here is one tape node with one backward closure, the way
the paper's layer anatomy (Section 2.2) runs ScaledMaskSoftmax as one
kernel: ``causal_attention`` (head split, ``q @ k^T``, scale, causal
mask, softmax, ``@ v``, head merge), ``layer_norm``, ``gelu``, the
router's ``softmax`` and ``cross_entropy``.

Bit-identity rule: a kernel runs the same numpy operations, on operands
of the same memory layout and in the same order, as the chain of
``Tensor`` primitives it replaces, so every activation, gradient and loss
has the bits the unfused chain gives (``tests/test_nn_kernels.py`` holds
each kernel to its chain). What a kernel may change is only what cannot
move a bit: temporaries are written in place, elementwise operands
commute (IEEE ``+`` and ``*`` are commutative), a row max is reduced in
another order (max is exact), and numpy's Python-level ``mean``/``var``
wrappers become the ``np.add.reduce(...) / n`` they compute.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GradientError
from repro.nn.tensor import Tensor

#: float32 of GELU's sqrt(2/pi).
_GELU_C = np.sqrt(2.0 / np.pi).astype(np.float32)


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, bit for bit.

    numpy reduces a contiguous last axis one row at a time, at a fixed
    cost per row that dominates rows of a few dozen elements. Reducing
    the transposed copy over its first axis runs ``np.maximum`` across
    all rows at once instead (~3x faster on (8, 4, 32, 32) scores). A max
    is exact in any order, so the result is identical, NaN included.
    """
    n = x.shape[-1]
    columns = np.ascontiguousarray(x.reshape(-1, n).T)
    return np.maximum.reduce(columns, axis=0).reshape(x.shape[:-1] + (1,))


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis into a new array: shift, exp, normalise."""
    out = x - _row_max(x)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def _softmax_grad(grad: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``probs * (grad - sum(grad * probs))`` over the last axis, new array."""
    inner = np.add.reduce(grad * probs, axis=-1, keepdims=True)
    out = grad - inner
    out *= probs
    return out


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    out_data = _softmax_rows(x.data)

    def backward(grad, a=x, o=out_data):
        if a.requires_grad:
            a._accumulate(_softmax_grad(grad, o))

    return Tensor._make(out_data, (x,), backward)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Causal multi-head ScaledMaskSoftmax attention as one tape node.

    ``q``, ``k`` and ``v`` are the (batch, seq, d_model) projections; the
    result is the heads' merged context, (batch, seq, d_model), ready for
    the output projection. The GEMMs are per-head batched exactly as the
    unfused chain ran them, on the same strided head views.
    """
    batch, seq, d_model = q.shape
    d_head = d_model // num_heads
    heads = (batch, seq, num_heads, d_head)
    q4 = q.data.reshape(heads).transpose(0, 2, 1, 3)
    k4 = k.data.reshape(heads).transpose(0, 2, 1, 3)
    v4 = v.data.reshape(heads).transpose(0, 2, 1, 3)
    scale = np.float32(1.0 / np.sqrt(d_head))
    scores = q4 @ k4.swapaxes(-1, -2)
    scores *= scale
    scores += np.triu(np.full((seq, seq), -1e9, dtype=np.float32), k=1)
    attn = _softmax_rows(scores)
    context = (attn @ v4).transpose(0, 2, 1, 3).reshape(batch, seq, d_model)

    def backward(grad, a=q, b=k, c=v, q4=q4, k4=k4, v4=v4, attn=attn):
        # The chain's head merge handed ``a @ v``'s backward a C-ordered
        # gradient; the GEMMs below see the same layouts it did.
        gctx = np.ascontiguousarray(grad.reshape(heads).transpose(0, 2, 1, 3))
        gscores = _softmax_grad(gctx @ v4.swapaxes(-1, -2), attn)
        gscores *= scale
        if c.requires_grad:
            gv = attn.swapaxes(-1, -2) @ gctx
            c._accumulate(gv.transpose(0, 2, 1, 3).reshape(batch, seq, d_model))
        if a.requires_grad:
            gq = gscores @ k4
            a._accumulate(gq.transpose(0, 2, 1, 3).reshape(batch, seq, d_model))
        if b.requires_grad:
            gk = (q4.swapaxes(-1, -2) @ gscores).transpose(0, 3, 1, 2)
            b._accumulate(gk.reshape(batch, seq, d_model))

    return Tensor._make(context, (q, k, v), backward)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU (Hendrycks & Gimpel), as used in GPT."""
    # The cube as two multiplies: numpy fast-paths only ``**2``; ``**3``
    # is a per-element powf, ~150x slower and data-dependent.
    square = x.data * x.data
    t = square * x.data
    t *= 0.044715
    t += x.data
    t *= _GELU_C
    np.tanh(t, out=t)
    out_data = 1.0 + t
    out_data *= 0.5 * x.data

    def backward(grad, a=x, square=square, t=t):
        if a.requires_grad:
            du = square * (3 * 0.044715)
            du += 1.0
            du *= _GELU_C
            local = t * t
            np.subtract(1.0, local, out=local)
            local *= 0.5 * a.data
            local *= du
            half = 1.0 + t
            half *= 0.5
            local += half
            local *= grad
            a._accumulate(local)

    return Tensor._make(out_data, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    # ``x.mean``/``x.var`` are these reductions behind numpy's Python
    # wrappers; ``var`` is the mean of the squared centred input.
    n = x.data.shape[-1]
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out_data = xhat * weight.data
    out_data += bias.data

    def backward(grad, a=x, w=weight, b=bias, xhat=xhat, inv=inv):
        leading = tuple(range(grad.ndim - 1))
        if b.requires_grad:
            b._accumulate(np.add.reduce(grad, axis=leading))
        if w.requires_grad:
            w._accumulate(np.add.reduce(grad * xhat, axis=leading))
        if a.requires_grad:
            gxhat = grad * w.data
            mean_g = np.add.reduce(gxhat, axis=-1, keepdims=True) / n
            proj = gxhat * xhat
            mean_gx = np.add.reduce(proj, axis=-1, keepdims=True) / n
            np.multiply(xhat, mean_gx, out=proj)
            gxhat -= mean_g
            gxhat -= proj
            gxhat *= inv
            a._accumulate(gxhat)

    return Tensor._make(out_data, (x, weight, bias), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross entropy.

    ``logits`` has shape (..., vocab); ``targets`` holds integer class ids
    of the leading shape.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise GradientError(
            f"targets shape {targets.shape} does not match logits "
            f"{logits.shape[:-1]}"
        )
    shifted = logits.data - _row_max(logits.data)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logprobs = shifted - logsumexp
    flat = logprobs.reshape(-1, logprobs.shape[-1])
    picked = flat[np.arange(flat.shape[0]), targets.reshape(-1)]
    out_data = np.float32(-picked.mean())

    def backward(grad, a=logits, lp=logprobs, t=targets):
        if a.requires_grad:
            probs = np.exp(lp)
            flat_probs = probs.reshape(-1, probs.shape[-1])
            flat_probs[np.arange(flat_probs.shape[0]), t.reshape(-1)] -= 1.0
            a._accumulate(grad * flat_probs.reshape(a.data.shape) / t.size)

    return Tensor._make(np.asarray(out_data), (logits,), backward)
