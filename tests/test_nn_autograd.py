"""Autograd correctness: analytic gradients vs central finite differences."""

import numpy as np
import pytest

from repro.errors import GradientError
from repro.nn import Tensor, cross_entropy, gelu, layer_norm, mse_loss, no_grad, softmax


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar fn w.r.t. x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn()
        flat[i] = orig - eps
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(build_loss, *arrays, rtol=2e-2, atol=2e-3):
    """Compare autograd gradients to numeric ones for every input."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for tensor, array in zip(tensors, arrays):
        expected = numeric_grad(
            lambda: build_loss(*[Tensor(a) for a in arrays]).item(), array
        )
        np.testing.assert_allclose(tensor.grad, expected, rtol=rtol, atol=atol)


RNG = np.random.default_rng(42)


class TestPrimitiveGradients:
    def test_add_broadcast(self):
        a = RNG.standard_normal((3, 4)).astype(np.float32)
        b = RNG.standard_normal((4,)).astype(np.float32)
        check_gradient(lambda x, y: ((x + y) ** 2).sum(), a, b)

    def test_mul(self):
        a = RNG.standard_normal((2, 3)).astype(np.float32)
        b = RNG.standard_normal((2, 3)).astype(np.float32)
        check_gradient(lambda x, y: (x * y).sum(), a, b)

    def test_matmul(self):
        a = RNG.standard_normal((3, 4)).astype(np.float32)
        b = RNG.standard_normal((4, 2)).astype(np.float32)
        check_gradient(lambda x, y: ((x @ y) ** 2).sum(), a, b)

    def test_batched_matmul(self):
        a = RNG.standard_normal((2, 3, 4)).astype(np.float32)
        b = RNG.standard_normal((2, 4, 3)).astype(np.float32)
        check_gradient(lambda x, y: (x @ y).sum(), a, b)

    def test_div(self):
        a = RNG.standard_normal((3,)).astype(np.float32)
        b = (RNG.standard_normal((3,)) + 3.0).astype(np.float32)
        check_gradient(lambda x, y: (x / y).sum(), a, b)

    def test_pow(self):
        a = (np.abs(RNG.standard_normal((4,))) + 0.5).astype(np.float32)
        check_gradient(lambda x: (x ** 3).sum(), a)

    def test_mean_axis(self):
        a = RNG.standard_normal((3, 5)).astype(np.float32)
        check_gradient(lambda x: (x.mean(axis=1) ** 2).sum(), a)

    def test_reshape_transpose(self):
        a = RNG.standard_normal((2, 6)).astype(np.float32)
        check_gradient(
            lambda x: (x.reshape(3, 4).transpose(1, 0) ** 2).sum(), a
        )

    def test_getitem(self):
        a = RNG.standard_normal((5, 3)).astype(np.float32)
        check_gradient(lambda x: (x[1:4] ** 2).sum(), a)

    def test_exp_log_tanh(self):
        a = (np.abs(RNG.standard_normal((4,))) + 0.5).astype(np.float32)
        check_gradient(lambda x: x.exp().sum(), a)
        check_gradient(lambda x: x.log().sum(), a)
        check_gradient(lambda x: x.tanh().sum(), a)

    def test_sub_neg(self):
        a = RNG.standard_normal((3,)).astype(np.float32)
        b = RNG.standard_normal((3,)).astype(np.float32)
        check_gradient(lambda x, y: ((x - y) ** 2).sum(), a, b)

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        loss = (x * 2.0 + x * 3.0).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, np.full(3, 5.0))


class TestCompositeGradients:
    def test_softmax(self):
        a = RNG.standard_normal((2, 5)).astype(np.float32)
        check_gradient(lambda x: (softmax(x) ** 2).sum(), a)

    def test_gelu(self):
        a = RNG.standard_normal((7,)).astype(np.float32)
        check_gradient(lambda x: gelu(x).sum(), a)

    def test_gelu_cubes_by_multiplying(self):
        """Pins the arithmetic form: ``x*x*x`` (two float32 multiplies),
        not ``x**3`` — numpy's per-element powf is ~150x slower and
        rounds 29 % of the cubes one ulp differently."""
        x = np.random.default_rng(0).standard_normal((8, 32, 256)).astype(np.float32)
        c = np.sqrt(2.0 / np.pi).astype(np.float32)
        reference = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))
        got = gelu(Tensor(x)).data
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, reference)

    def test_layer_norm(self):
        x = RNG.standard_normal((2, 8)).astype(np.float32)
        w = (RNG.standard_normal((8,)) * 0.1 + 1.0).astype(np.float32)
        b = RNG.standard_normal((8,)).astype(np.float32)
        check_gradient(lambda a, c, d: (layer_norm(a, c, d) ** 2).sum(), x, w, b)

    def test_cross_entropy(self):
        logits = RNG.standard_normal((3, 4, 6)).astype(np.float32)
        targets = RNG.integers(0, 6, size=(3, 4))
        check_gradient(lambda x: cross_entropy(x, targets), logits)

    def test_cross_entropy_matches_uniform_bound(self):
        logits = Tensor(np.zeros((2, 3, 8), dtype=np.float32), requires_grad=True)
        targets = np.zeros((2, 3), dtype=np.int64)
        assert cross_entropy(logits, targets).item() == pytest.approx(np.log(8))

    def test_mse(self):
        pred = RNG.standard_normal((4, 2)).astype(np.float32)
        target = RNG.standard_normal((4, 2)).astype(np.float32)
        check_gradient(lambda x: mse_loss(x, target), pred)

    def test_cross_entropy_shape_mismatch(self):
        logits = Tensor(np.zeros((2, 3, 8), dtype=np.float32), requires_grad=True)
        with pytest.raises(GradientError):
            cross_entropy(logits, np.zeros((2, 4), dtype=np.int64))


class TestAutogradMechanics:
    def test_backward_needs_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2).backward()

    def test_backward_on_constant_rejected(self):
        x = Tensor(np.ones(2))
        with pytest.raises(GradientError):
            x.sum().backward()

    def test_no_grad_suppresses_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad

    def test_cast_fp16_rounds_but_passes_gradient(self):
        value = np.array([1.0 + 2**-13], dtype=np.float32)
        x = Tensor(value, requires_grad=True)
        y = x.cast_fp16()
        assert y.data[0] == np.float32(np.float16(value[0]))
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_deep_chain_does_not_recurse(self):
        x = Tensor(np.ones(1), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()  # iterative topo sort: no RecursionError
        np.testing.assert_allclose(x.grad, [1.0])

    def test_detach_breaks_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad
