"""Composite differentiable functions: softmax, GELU, layernorm, losses.

Each function is implemented with a fused backward closure rather than
chains of primitive ops, keeping tapes short for the Transformer layers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GradientError
from repro.nn.tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad, a=x, o=out_data, ax=axis):
        if a.requires_grad:
            inner = (grad * o).sum(axis=ax, keepdims=True)
            a._accumulate(o * (grad - inner))

    return Tensor._make(out_data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU (Hendrycks & Gimpel), as used in GPT."""
    c = np.sqrt(2.0 / np.pi).astype(np.float32)
    # The cube as two multiplies: numpy fast-paths only ``**2``; ``**3``
    # is a per-element powf, ~150x slower and data-dependent.
    u = c * (x.data + 0.044715 * (x.data * x.data * x.data))
    t = np.tanh(u)
    out_data = 0.5 * x.data * (1.0 + t)

    def backward(grad, a=x, t=t, c=c):
        if a.requires_grad:
            du = c * (1.0 + 3 * 0.044715 * a.data**2)
            local = 0.5 * (1.0 + t) + 0.5 * a.data * (1.0 - t * t) * du
            a._accumulate(grad * local)

    return Tensor._make(out_data, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * weight.data + bias.data

    def backward(grad, a=x, w=weight, b=bias, xhat=xhat, inv=inv):
        if b.requires_grad:
            b._accumulate(grad.sum(axis=tuple(range(grad.ndim - 1))))
        if w.requires_grad:
            w._accumulate((grad * xhat).sum(axis=tuple(range(grad.ndim - 1))))
        if a.requires_grad:
            n = a.data.shape[-1]
            gxhat = grad * w.data
            term = (
                gxhat
                - gxhat.mean(axis=-1, keepdims=True)
                - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
            )
            a._accumulate(term * inv)

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
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
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


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=np.float32)
    diff = pred.data - target
    out_data = np.asarray(np.float32((diff * diff).mean()))

    def backward(grad, a=pred, d=diff):
        if a.requires_grad:
            a._accumulate(grad * 2.0 * d / d.size)

    return Tensor._make(out_data, (pred,), backward)
