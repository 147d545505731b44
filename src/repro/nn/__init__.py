"""Minimal numpy autograd framework.

PyTorch is unavailable in this reproduction environment, so the functional
training path (the Figure 6 API, the examples and the Table 6 convergence
experiment) runs on this self-contained substrate: a reverse-mode autograd
tensor, Transformer layers with mixed-precision casting, an Adam optimizer
with FP32 master states, and synthetic datasets.
"""

from repro.nn.tensor import (
    Tensor,
    no_grad,
    round_fp16,
)
from repro.nn.layers import (
    FFN,
    Embedding,
    LayerNorm,
    Linear,
    MoEFFN,
    Module,
    MultiHeadAttention,
    TinyTransformerLM,
    TransformerBlock,
)
from repro.nn.optim import Adam, MixedPrecisionAdam
from repro.nn.recompute import checkpoint
from repro.nn.data import Batch, copy_task_batches, lm_synthetic_batches
from repro.nn.functional import (
    causal_attention,
    cross_entropy,
    gelu,
    layer_norm,
    softmax,
)

__all__ = [
    "Tensor",
    "no_grad",
    "round_fp16",
    "Module",
    "Linear",
    "LayerNorm",
    "FFN",
    "MultiHeadAttention",
    "TransformerBlock",
    "MoEFFN",
    "Embedding",
    "TinyTransformerLM",
    "Adam",
    "MixedPrecisionAdam",
    "checkpoint",
    "Batch",
    "copy_task_batches",
    "lm_synthetic_batches",
    "causal_attention",
    "cross_entropy",
    "gelu",
    "layer_norm",
    "softmax",
]
