"""Minimal numpy autograd framework.

PyTorch is unavailable in this reproduction environment, so the functional
training path (the Figure 6 API, the examples and the Table 6 convergence
experiment) runs on this self-contained substrate: a reverse-mode autograd
tensor, Transformer layers with mixed-precision casting, an Adam optimizer
with FP32 master states, and synthetic datasets.
"""

from repro.nn.tensor import (
    Tensor,
    get_compute_dtype,
    no_grad,
    round_bf16,
    round_fp16,
    set_compute_dtype,
)
from repro.nn.layers import (
    FFN,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    MoEFFN,
    Module,
    MultiHeadAttention,
    TinyTransformerLM,
    TransformerBlock,
)
from repro.nn.optim import SGD, Adam, MixedPrecisionAdam
from repro.nn.recompute import checkpoint
from repro.nn.data import Batch, copy_task_batches, lm_synthetic_batches
from repro.nn.functional import cross_entropy, gelu, layer_norm, mse_loss, softmax

__all__ = [
    "Tensor",
    "no_grad",
    "set_compute_dtype",
    "get_compute_dtype",
    "round_bf16",
    "round_fp16",
    "Module",
    "Linear",
    "LayerNorm",
    "GELU",
    "FFN",
    "MultiHeadAttention",
    "TransformerBlock",
    "MoEFFN",
    "Embedding",
    "TinyTransformerLM",
    "SGD",
    "Adam",
    "MixedPrecisionAdam",
    "checkpoint",
    "Batch",
    "copy_task_batches",
    "lm_synthetic_batches",
    "cross_entropy",
    "gelu",
    "layer_norm",
    "mse_loss",
    "softmax",
]
