"""The fused layer kernels give the bits of the chains they replace.

Each reference below is the unfused computation: attention as the chain
of ``Tensor`` primitives (head split, ``q @ k^T``, scale, mask, softmax,
``@ v``, head merge), LayerNorm through ``np.mean``/``np.var``, GELU and
softmax as the plain expressions. Every output and every input and weight
gradient must be ``np.array_equal`` to the reference's, on the bench
engine model's shapes, the cluster model's and an odd one.
"""

import math

import numpy as np
import pytest

from repro.fleet.factory import JobFactory, JobWorkload
from repro.nn import Tensor, causal_attention, cross_entropy, gelu, layer_norm, softmax
from repro.nn import layers
from repro.nn import tensor as tensor_mod
from repro.nn.functional import _row_max


def ref_softmax(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=-1, keepdims=True)

    def backward(grad, a=x, o=out_data):
        if a.requires_grad:
            inner = (grad * o).sum(axis=-1, keepdims=True)
            a._accumulate(o * (grad - inner))

    return Tensor._make(out_data, (x,), backward)


def ref_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    batch, seq, d_model = q.shape
    d_head = d_model // num_heads

    def split(t):
        return t.reshape(batch, seq, num_heads, d_head).transpose(0, 2, 1, 3)

    q, k, v = split(q), split(k), split(v)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_head))
    mask = np.triu(np.full((seq, seq), -1e9, dtype=np.float32), k=1)
    attn = ref_softmax(scores + Tensor(mask))
    return (attn @ v).transpose(0, 2, 1, 3).reshape(batch, seq, d_model)


def ref_gelu(x: Tensor) -> Tensor:
    c = np.sqrt(2.0 / np.pi).astype(np.float32)
    t = np.tanh(c * (x.data + 0.044715 * (x.data * x.data * x.data)))
    out_data = 0.5 * x.data * (1.0 + t)

    def backward(grad, a=x):
        if a.requires_grad:
            du = c * (1.0 + 3 * 0.044715 * a.data**2)
            local = 0.5 * (1.0 + t) + 0.5 * a.data * (1.0 - t * t) * du
            a._accumulate(grad * local)

    return Tensor._make(out_data, (x,), backward)


def ref_layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    mu = np.mean(x.data, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.var(x.data, axis=-1, keepdims=True) + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * weight.data + bias.data

    def backward(grad, a=x, w=weight, b=bias):
        leading = tuple(range(grad.ndim - 1))
        if b.requires_grad:
            b._accumulate(grad.sum(axis=leading))
        if w.requires_grad:
            w._accumulate((grad * xhat).sum(axis=leading))
        if a.requires_grad:
            gxhat = grad * w.data
            term = (
                gxhat
                - np.mean(gxhat, axis=-1, keepdims=True)
                - xhat * np.mean(gxhat * xhat, axis=-1, keepdims=True)
            )
            a._accumulate(term * inv)

    return Tensor._make(out_data, (x, weight, bias), backward)


def ref_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logprobs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    flat = logprobs.reshape(-1, logprobs.shape[-1])
    out_data = np.float32(-flat[np.arange(flat.shape[0]), targets.reshape(-1)].mean())

    def backward(grad, a=logits):
        if a.requires_grad:
            probs = np.exp(logprobs).reshape(-1, logprobs.shape[-1])
            probs[np.arange(probs.shape[0]), targets.reshape(-1)] -= 1.0
            a._accumulate(grad * probs.reshape(a.data.shape) / targets.size)

    return Tensor._make(np.asarray(out_data), (logits,), backward)


#: (batch, seq, d_model, num_heads, d_ffn): the bench engine model, the
#: cluster model, and a shape that is a power of two nowhere.
SHAPES = {
    "bench_engine": (8, 32, 64, 4, 256),
    "cluster": (8, 32, 32, 4, 64),
    "odd": (3, 7, 15, 3, 20),
}


def _run(fn, arrays, grad):
    """Output and the gradient of every input of ``fn`` on fresh leaves."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.backward(grad)
    return out.data, [t.grad for t in tensors]


def _assert_same_bits(fused, reference, arrays, grad):
    out, grads = _run(fused, arrays, grad)
    ref_out, ref_grads = _run(reference, arrays, grad)
    assert np.array_equal(out, ref_out)
    for got, want in zip(grads, ref_grads):
        assert got is not None and np.array_equal(got, want)


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
class TestSameBitsAsTheChain:
    def test_attention(self, shape):
        batch, seq, d_model, heads, _ = shape
        rng = np.random.default_rng(1)
        arrays = [rng.standard_normal((batch, seq, d_model)).astype(np.float32)
                  for _ in range(3)]
        grad = rng.standard_normal((batch, seq, d_model)).astype(np.float32)
        _assert_same_bits(
            lambda q, k, v: causal_attention(q, k, v, heads),
            lambda q, k, v: ref_attention(q, k, v, heads),
            arrays, grad,
        )

    def test_layer_norm(self, shape):
        batch, seq, d_model, _, _ = shape
        rng = np.random.default_rng(2)
        arrays = [
            (rng.standard_normal((batch, seq, d_model)) * 3 + 1).astype(np.float32),
            (rng.standard_normal(d_model) * 0.1 + 1).astype(np.float32),
            rng.standard_normal(d_model).astype(np.float32),
        ]
        grad = rng.standard_normal((batch, seq, d_model)).astype(np.float32)
        _assert_same_bits(layer_norm, ref_layer_norm, arrays, grad)

    def test_gelu(self, shape):
        batch, seq, _, _, d_ffn = shape
        rng = np.random.default_rng(3)
        arrays = [(rng.standard_normal((batch, seq, d_ffn)) * 2).astype(np.float32)]
        grad = rng.standard_normal((batch, seq, d_ffn)).astype(np.float32)
        _assert_same_bits(gelu, ref_gelu, arrays, grad)

    def test_softmax(self, shape):
        batch, seq, _, heads, _ = shape
        rng = np.random.default_rng(4)
        arrays = [(rng.standard_normal((batch * seq, heads + 1)) * 4).astype(np.float32)]
        grad = rng.standard_normal(arrays[0].shape).astype(np.float32)
        _assert_same_bits(softmax, ref_softmax, arrays, grad)

    def test_cross_entropy(self, shape):
        batch, seq, d_model, _, _ = shape
        rng = np.random.default_rng(5)
        arrays = [(rng.standard_normal((batch, seq, d_model)) * 3).astype(np.float32)]
        targets = rng.integers(0, d_model, size=(batch, seq))
        _assert_same_bits(
            lambda x: cross_entropy(x, targets),
            lambda x: ref_cross_entropy(x, targets),
            arrays, None,
        )


def _model_step(workload: JobWorkload, loss_fn):
    factory = JobFactory(workload)
    model = factory.model()
    batch = factory.batches(1)[0]
    loss = loss_fn(model(batch.inputs, True), batch.targets)
    loss.backward()
    return loss.data, [p.grad for p in model.parameters()]


@pytest.mark.parametrize("workload", [
    JobWorkload(layers=4, d_model=64, d_ffn=256, num_heads=4, seq_len=32,
                batch_size=8, vocab_size=64),
    JobWorkload(layers=4, seq_len=32, batch_size=8, vocab_size=64),
    JobWorkload(layers=2, d_model=15, d_ffn=20, num_heads=3, seq_len=7,
                batch_size=3, vocab_size=11),
], ids=["bench_engine", "cluster", "odd"])
def test_model_gradients_same_bits_as_unfused(workload, monkeypatch):
    """Whole model: the fused kernels change no bit of the loss or of any
    parameter gradient, accumulation order across the tape included."""
    loss, grads = _model_step(workload, cross_entropy)
    monkeypatch.setattr(layers, "causal_attention", ref_attention)
    monkeypatch.setattr(layers, "layer_norm", ref_layer_norm)
    monkeypatch.setattr(layers, "gelu", ref_gelu)
    ref_loss, ref_grads = _model_step(workload, ref_cross_entropy)
    assert np.array_equal(loss, ref_loss)
    assert len(grads) == len(ref_grads)
    for got, want in zip(grads, ref_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kernel, shapes", [
    (lambda q, k, v: causal_attention(q, k, v, 2), [(2, 5, 8)] * 3),
    (layer_norm, [(2, 5, 8), (8,), (8,)]),
    (gelu, [(2, 5, 8)]),
    (softmax, [(2, 5, 8)]),
])
def test_each_kernel_is_one_tape_node(kernel, shapes):
    rng = np.random.default_rng(6)
    inputs = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
              for s in shapes]
    before = tensor_mod.tape_nodes_created
    kernel(*inputs)
    assert tensor_mod.tape_nodes_created - before == 1


@pytest.mark.parametrize("shape", [(8, 4, 32, 32), (8, 3, 7, 7), (5, 33), (4, 1), (0, 3)])
def test_row_max_is_numpys_max(shape):
    x = np.random.default_rng(7).standard_normal(shape).astype(np.float32)
    if x.size:
        x.reshape(-1)[::5] = -np.inf
        x.reshape(-1)[3] = np.nan
    assert np.array_equal(_row_max(x), x.max(axis=-1, keepdims=True), equal_nan=True)


def test_attention_gradcheck():
    """Central differences agree with the fused backward."""
    rng = np.random.default_rng(8)
    arrays = [rng.standard_normal((1, 3, 4)) for _ in range(3)]
    weights = rng.standard_normal((1, 3, 4))

    def loss(*tensors):
        return (causal_attention(*tensors, 2) * Tensor(weights)).sum()

    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss(*leaves).backward()
    eps = 1e-2
    for leaf, array in zip(leaves, arrays):
        numeric = np.zeros_like(array)
        for index in np.ndindex(array.shape):
            up, down = array.copy(), array.copy()
            up[index] += eps
            down[index] -= eps
            plus = [Tensor(up if a is array else a) for a in arrays]
            minus = [Tensor(down if a is array else a) for a in arrays]
            numeric[index] = (loss(*plus).item() - loss(*minus).item()) / (2 * eps)
        np.testing.assert_allclose(leaf.grad, numeric, rtol=2e-2, atol=2e-3)

