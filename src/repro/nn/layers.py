"""Neural-network modules: the layers of Section 2.2, runnable on numpy.

The module tree mirrors the paper's layer anatomy — Linear(Q,K,V),
ScaledMaskSoftmax, residual Add + LayerNorm, the two-FC GELU FFN — plus a
top-1-routed MoE FFN (Switch-Transformer style) for the T5-MoE experiments.
Forward hooks let the functional Angel engine trace parameter accesses the
way the paper instruments PyTorch's Parameter class.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.functional import gelu, layer_norm, softmax
from repro.nn.tensor import Tensor


class Module:
    """Base class: parameter registration, traversal and hooks."""

    def __init__(self) -> None:
        self._parameters: dict[str, Tensor] = {}
        self._modules: dict[str, Module] = {}
        self._forward_hooks: list = []

    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        tensor.name = name
        self._parameters[name] = tensor
        return tensor

    def __setattr__(self, key, value):
        if isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[key] = value
        super().__setattr__(key, value)

    def named_parameters(self, prefix: str = ""):
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def modules(self):
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def add_forward_hook(self, hook) -> None:
        """``hook(module)`` fires before each forward of this module."""
        self._forward_hooks.append(hook)

    def __call__(self, *args, **kwargs):
        for hook in self._forward_hooks:
            hook(self)
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    @property
    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


def _init(shape: tuple[int, ...], rng: np.random.Generator, fan_in: int) -> np.ndarray:
    scale = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-scale, scale, size=shape).astype(np.float32)


class Linear(Module):
    """y = x W + b."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Tensor(_init((in_features, out_features), rng, in_features))
        )
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor(np.zeros(out_features, dtype=np.float32))
            )

    def forward(self, x: Tensor, mixed_precision: bool = False) -> Tensor:
        weight = self.weight.cast_compute() if mixed_precision else self.weight
        out = x @ weight
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = self.register_parameter(
            "weight", Tensor(np.ones(dim, dtype=np.float32))
        )
        self.bias = self.register_parameter(
            "bias", Tensor(np.zeros(dim, dtype=np.float32))
        )

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.weight, self.bias, eps=self.eps)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return gelu(x)


class Embedding(Module):
    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = self.register_parameter(
            "weight", Tensor(rng.normal(0, 0.02, size=(vocab_size, dim)).astype(np.float32))
        )

    def forward(self, token_ids: np.ndarray) -> Tensor:
        return self.weight[np.asarray(token_ids)]


class MultiHeadAttention(Module):
    """Causal multi-head self-attention (Equation 1 of the paper)."""

    def __init__(self, d_model: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        if d_model % num_heads:
            raise ConfigurationError("d_model must be divisible by num_heads")
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.wq = Linear(d_model, d_model, rng, bias=False)
        self.wk = Linear(d_model, d_model, rng, bias=False)
        self.wv = Linear(d_model, d_model, rng, bias=False)
        self.wo = Linear(d_model, d_model, rng, bias=False)

    def _split(self, x: Tensor, batch: int, seq: int) -> Tensor:
        return x.reshape(batch, seq, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, mixed_precision: bool = False) -> Tensor:
        batch, seq, _ = x.shape
        q = self._split(self.wq(x, mixed_precision), batch, seq)
        k = self._split(self.wk(x, mixed_precision), batch, seq)
        v = self._split(self.wv(x, mixed_precision), batch, seq)
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(self.d_head))
        mask = np.triu(np.full((seq, seq), -1e9, dtype=np.float32), k=1)
        scores = scores + Tensor(mask)
        attn = softmax(scores, axis=-1)
        context = (attn @ v).transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)
        return self.wo(context, mixed_precision)


class FFN(Module):
    """Position-wise feed-forward network (Equation 3)."""

    def __init__(self, d_model: int, d_ffn: int, rng: np.random.Generator):
        super().__init__()
        self.w1 = Linear(d_model, d_ffn, rng, bias=False)
        self.w2 = Linear(d_ffn, d_model, rng, bias=False)

    def forward(self, x: Tensor, mixed_precision: bool = False) -> Tensor:
        return self.w2(gelu(self.w1(x, mixed_precision)), mixed_precision)


class MoEFFN(Module):
    """Top-1-routed mixture-of-experts FFN (Switch-Transformer style).

    The router picks one expert per token; tokens are dispatched to their
    experts, transformed, and combined back, scaled by the router
    probability so the router receives gradient.
    """

    def __init__(self, d_model: int, d_ffn: int, num_experts: int,
                 rng: np.random.Generator):
        super().__init__()
        if num_experts <= 0:
            raise ConfigurationError("num_experts must be positive")
        self.num_experts = num_experts
        self.router = Linear(d_model, num_experts, rng, bias=False)
        self.experts = [FFN(d_model, d_ffn, rng) for _ in range(num_experts)]
        for index, expert in enumerate(self.experts):
            self._modules[f"expert{index}"] = expert

    def forward(self, x: Tensor, mixed_precision: bool = False) -> Tensor:
        batch, seq, dim = x.shape
        flat = x.reshape(batch * seq, dim)
        gate = softmax(self.router(flat, mixed_precision), axis=-1)
        choice = gate.data.argmax(axis=-1)
        out = None
        for index, expert in enumerate(self.experts):
            token_ids = np.nonzero(choice == index)[0]
            if token_ids.size == 0:
                continue
            routed = expert(flat[token_ids], mixed_precision)
            scale = gate[token_ids][:, index].reshape(token_ids.size, 1)
            contribution = _scatter_rows(routed * scale, token_ids, batch * seq)
            out = contribution if out is None else out + contribution
        if out is None:  # degenerate: empty input
            out = flat * 0.0
        return out.reshape(batch, seq, dim)


def _scatter_rows(rows: Tensor, indices: np.ndarray, total: int) -> Tensor:
    """Place ``rows`` at ``indices`` of a zero (total, dim) tensor."""
    out_data = np.zeros((total, rows.shape[-1]), dtype=np.float32)
    out_data[indices] = rows.data

    def backward(grad, a=rows, idx=indices):
        if a.requires_grad:
            a._accumulate(np.asarray(grad)[idx])

    return Tensor._make(out_data, (rows,), backward)


class TransformerBlock(Module):
    """Pre-activation residual Transformer layer (Equation 2)."""

    def __init__(self, d_model: int, d_ffn: int, num_heads: int,
                 rng: np.random.Generator, num_experts: int = 0):
        super().__init__()
        self.ln1 = LayerNorm(d_model)
        self.attn = MultiHeadAttention(d_model, num_heads, rng)
        self.ln2 = LayerNorm(d_model)
        if num_experts:
            self.ffn: Module = MoEFFN(d_model, d_ffn, num_experts, rng)
        else:
            self.ffn = FFN(d_model, d_ffn, rng)

    def forward(self, x: Tensor, mixed_precision: bool = False) -> Tensor:
        x = x + self.attn(self.ln1(x), mixed_precision)
        x = x + self.ffn(self.ln2(x), mixed_precision)
        return x


class TinyTransformerLM(Module):
    """A small decoder-only language model for the functional experiments."""

    def __init__(
        self,
        vocab_size: int,
        d_model: int,
        d_ffn: int,
        num_heads: int,
        num_layers: int,
        max_seq: int = 128,
        num_experts: int = 0,
        seed: int = 0,
        recompute: bool = False,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.embed = Embedding(vocab_size, d_model, rng)
        self.pos_embed = Embedding(max_seq, d_model, rng)
        self.blocks = [
            TransformerBlock(d_model, d_ffn, num_heads, rng, num_experts=num_experts)
            for _ in range(num_layers)
        ]
        for index, block in enumerate(self.blocks):
            self._modules[f"block{index}"] = block
        self.ln_f = LayerNorm(d_model)
        self.head = Linear(d_model, vocab_size, rng, bias=False)
        # Section 4.2's recomputation: drop each block's activations in
        # the forward pass and regenerate them during backward.
        self.recompute = recompute

    def forward(self, token_ids: np.ndarray, mixed_precision: bool = False) -> Tensor:
        token_ids = np.asarray(token_ids)
        positions = np.arange(token_ids.shape[-1])
        x = self.embed(token_ids) + self.pos_embed(positions)
        for block in self.blocks:
            if self.recompute:
                from repro.nn.recompute import checkpoint

                x = checkpoint(
                    lambda t, blk=block: blk(t, mixed_precision),
                    x,
                    params=tuple(block.parameters()),
                )
            else:
                x = block(x, mixed_precision)
        return self.head(self.ln_f(x), mixed_precision)
