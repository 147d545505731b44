"""Layers, optimizers, data generators of the numpy substrate."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import (
    Adam,
    FFN,
    LayerNorm,
    Linear,
    MixedPrecisionAdam,
    MoEFFN,
    MultiHeadAttention,
    SGD,
    Tensor,
    TinyTransformerLM,
    TransformerBlock,
    copy_task_batches,
    cross_entropy,
    lm_synthetic_batches,
)

RNG = np.random.default_rng(0)


class TestModules:
    def test_linear_shapes(self):
        layer = Linear(8, 16, RNG)
        out = layer(Tensor(np.zeros((2, 4, 8), dtype=np.float32)))
        assert out.shape == (2, 4, 16)

    def test_named_parameters_are_qualified(self):
        block = TransformerBlock(16, 32, 2, RNG)
        names = dict(block.named_parameters())
        assert "attn.wq.weight" in names
        assert "ffn.w1.weight" in names
        assert "ln1.weight" in names

    def test_parameter_count(self):
        layer = Linear(8, 16, RNG, bias=True)
        assert layer.num_parameters == 8 * 16 + 16

    def test_layernorm_normalizes(self):
        ln = LayerNorm(32)
        x = Tensor(RNG.standard_normal((4, 32)).astype(np.float32) * 5 + 3)
        out = ln(x).numpy()
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_attention_is_causal(self):
        """Changing a future token must not change earlier outputs."""
        attn = MultiHeadAttention(16, 4, np.random.default_rng(1))
        x = RNG.standard_normal((1, 6, 16)).astype(np.float32)
        base = attn(Tensor(x)).numpy()
        x2 = x.copy()
        x2[0, 5] += 10.0
        changed = attn(Tensor(x2)).numpy()
        np.testing.assert_allclose(changed[0, :5], base[0, :5], atol=1e-5)
        assert not np.allclose(changed[0, 5], base[0, 5])

    def test_attention_head_divisibility(self):
        with pytest.raises(ConfigurationError):
            MultiHeadAttention(10, 3, RNG)

    def test_moe_routes_every_token(self):
        moe = MoEFFN(16, 32, num_experts=4, rng=np.random.default_rng(2))
        x = Tensor(RNG.standard_normal((2, 8, 16)).astype(np.float32))
        out = moe(x)
        assert out.shape == (2, 8, 16)
        # With top-1 routing and softmax gates < 1, output is non-zero.
        assert np.abs(out.numpy()).sum() > 0

    def test_moe_gradient_reaches_router_and_experts(self):
        moe = MoEFFN(8, 16, num_experts=2, rng=np.random.default_rng(3))
        x = Tensor(RNG.standard_normal((1, 4, 8)).astype(np.float32))
        (moe(x) ** 2).sum().backward()
        assert moe.router.weight.grad is not None
        touched = [e for e in moe.experts if e.w1.weight.grad is not None]
        assert touched  # at least one expert received tokens

    def test_lm_forward_shapes(self):
        model = TinyTransformerLM(
            vocab_size=11, d_model=16, d_ffn=32, num_heads=4, num_layers=2,
            max_seq=8,
        )
        logits = model(np.zeros((3, 8), dtype=np.int64))
        assert logits.shape == (3, 8, 11)

    def test_forward_hooks_fire(self):
        layer = Linear(4, 4, RNG)
        seen = []
        layer.add_forward_hook(seen.append)
        layer(Tensor(np.zeros((1, 4), dtype=np.float32)))
        assert seen == [layer]

    def test_mixed_precision_changes_output(self):
        """FP16 rounding must actually flow through the compute."""
        layer = Linear(64, 64, np.random.default_rng(5), bias=False)
        x = Tensor(RNG.standard_normal((1, 64)).astype(np.float32))
        exact = layer(x, mixed_precision=False).numpy()
        rounded = layer(x, mixed_precision=True).numpy()
        assert not np.array_equal(exact, rounded)
        np.testing.assert_allclose(exact, rounded, rtol=1e-2, atol=1e-2)


class TestOptimizers:
    def _quadratic(self):
        target = np.array([3.0, -2.0], dtype=np.float32)
        param = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        return param, target

    def test_sgd_converges_on_quadratic(self):
        param, target = self._quadratic()
        opt = SGD([param], lr=0.1)
        for _ in range(200):
            loss = ((param - Tensor(target)) ** 2).sum()
            param.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_adam_converges_on_quadratic(self):
        param, target = self._quadratic()
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            loss = ((param - Tensor(target)) ** 2).sum()
            param.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_adam_matches_reference_step(self):
        """One Adam step against the textbook formula."""
        param = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = Adam([param], lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        param.grad = np.array([0.5], dtype=np.float32)
        opt.step()
        m = 0.1 * 0.5
        v = 0.001 * 0.25
        mhat, vhat = m / 0.1, v / 0.001
        expected = 1.0 - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(param.data, [expected], rtol=1e-6)

    def test_adam_bitwise_equals_unbuffered_expressions(self):
        """Scratch-buffered Adam == the temporaries-allocating formula,
        bit for bit, with two same-shape parameters sharing the scratch."""
        rng = np.random.default_rng(0)
        params = [Tensor(rng.standard_normal((3, 5)).astype(np.float32), requires_grad=True)
                  for _ in range(2)]
        ref = [p.data.copy() for p in params]
        ms = [np.zeros_like(r) for r in ref]
        vs = [np.zeros_like(r) for r in ref]
        b1, b2, lr, eps = 0.9, 0.999, 1e-2, 1e-8
        opt = Adam(params, lr=lr, betas=(b1, b2), eps=eps)
        for t in range(1, 6):
            for i, param in enumerate(params):
                grad = (rng.standard_normal((3, 5)) * 10.0**-t).astype(np.float32)
                param.grad = grad
                ms[i] *= b1
                ms[i] += (1 - b1) * grad
                vs[i] *= b2
                vs[i] += (1 - b2) * grad * grad
                mhat = ms[i] / (1 - b1**t)
                vhat = vs[i] / (1 - b2**t)
                ref[i] -= lr * mhat / (np.sqrt(vhat) + eps)
            opt.step()
            for i, param in enumerate(params):
                np.testing.assert_array_equal(param.data.view(np.uint32), ref[i].view(np.uint32))
                np.testing.assert_array_equal(opt.v[i], vs[i])

    def test_mixed_precision_master_stays_fp32(self):
        param = Tensor(np.array([1.0 + 2**-20], dtype=np.float32), requires_grad=True)
        opt = MixedPrecisionAdam([param], lr=0.0)
        # lr=0: master unchanged, but the visible parameter is FP16-rounded.
        param.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert opt.master[0][0] == np.float32(1.0 + 2**-20)
        assert param.data[0] == np.float32(np.float16(1.0 + 2**-20))

    def test_sgd_momentum_accelerates(self):
        param, target = self._quadratic()
        plain = SGD([param], lr=0.01)
        losses_plain = self._run_steps(param, target, plain, 50)
        param2, _ = self._quadratic()
        momentum = SGD([param2], lr=0.01, momentum=0.9)
        losses_momentum = self._run_steps(param2, target, momentum, 50)
        assert losses_momentum[-1] < losses_plain[-1]

    @staticmethod
    def _run_steps(param, target, opt, n):
        losses = []
        for _ in range(n):
            loss = ((param - Tensor(target)) ** 2).sum()
            param.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        return losses


class TestData:
    def test_lm_batches_shapes_and_shift(self):
        batches = list(lm_synthetic_batches(16, 8, 4, 3, seed=0))
        assert len(batches) == 3
        for batch in batches:
            assert batch.inputs.shape == (4, 8)
            assert batch.targets.shape == (4, 8)
            # Next-token structure: targets[t] == inputs[t+1].
            np.testing.assert_array_equal(batch.inputs[:, 1:], batch.targets[:, :-1])

    def test_chain_seed_fixes_distribution(self):
        a = next(lm_synthetic_batches(16, 8, 4, 1, seed=1, chain_seed=9))
        b = next(lm_synthetic_batches(16, 8, 4, 1, seed=2, chain_seed=9))
        # Different samples from the same chain.
        assert not np.array_equal(a.inputs, b.inputs)

    def test_deterministic_given_seed(self):
        a = next(lm_synthetic_batches(16, 8, 4, 1, seed=3))
        b = next(lm_synthetic_batches(16, 8, 4, 1, seed=3))
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_copy_task_structure(self):
        batch = next(copy_task_batches(10, 8, 4, 1, seed=0))
        half = 4
        np.testing.assert_array_equal(batch.targets[:, half:], batch.inputs[:, :half])
        assert (batch.inputs[:, half:] == 0).all()

    def test_copy_task_odd_length_rejected(self):
        with pytest.raises(ConfigurationError):
            next(copy_task_batches(10, 7, 4, 1))

    def test_markov_chain_is_learnable(self):
        """A bigram counter beats uniform on the synthetic chain."""
        batches = list(lm_synthetic_batches(8, 32, 16, 10, seed=5))
        counts = np.ones((8, 8))
        for batch in batches[:8]:
            for row_in, row_out in zip(batch.inputs, batch.targets):
                np.add.at(counts, (row_in, row_out), 1)
        probs = counts / counts.sum(axis=1, keepdims=True)
        test = batches[9]
        nll = -np.log(probs[test.inputs.reshape(-1), test.targets.reshape(-1)]).mean()
        assert nll < np.log(8) * 0.9


class TestBF16:
    def test_round_bf16_truncates_mantissa(self):
        from repro.nn import round_bf16

        value = np.array([1.0 + 2**-9], dtype=np.float32)
        rounded = round_bf16(value)
        # 7-bit mantissa: 1 + 2^-9 rounds back to 1 + 2^-7 or 1.0.
        bits = rounded.view(np.uint32)
        assert (bits & 0xFFFF == 0).all()

    def test_round_bf16_ties_to_even(self):
        from repro.nn import round_bf16

        # Exactly halfway between two bf16 values with even low bit: down.
        value = np.array([1.0 + 2**-8], dtype=np.float32)
        assert round_bf16(value)[0] == np.float32(1.0)

    @pytest.mark.parametrize("bits", [0x7FFFFFFF, 0xFFFFFFFF, 0x7F800001])
    def test_round_bf16_keeps_nan_a_nan(self, bits):
        from repro.nn import round_bf16

        value = np.array([bits], dtype=np.uint32).view(np.float32)
        rounded = round_bf16(value)
        assert np.isnan(rounded[0])
        assert rounded.view(np.uint32)[0] & 0xFFFF == 0  # still a bf16 pattern
        assert np.signbit(rounded[0]) == np.signbit(value[0])

    def test_round_bf16_keeps_infinities(self):
        from repro.nn import round_bf16

        value = np.array([np.inf, -np.inf], dtype=np.float32)
        np.testing.assert_array_equal(round_bf16(value), value)

    def test_bf16_wider_range_than_fp16(self):
        from repro.nn import round_bf16

        big = np.array([1e30], dtype=np.float32)
        assert np.isfinite(round_bf16(big)[0])           # bf16 keeps it
        with np.errstate(over="ignore"):                 # fp16 overflows
            assert np.isinf(big.astype(np.float16).astype(np.float32))[0]

    def test_compute_dtype_switch(self):
        from repro.nn import Tensor, get_compute_dtype, set_compute_dtype

        x = Tensor(np.array([1.0 + 2**-9], dtype=np.float32))
        try:
            set_compute_dtype("bf16")
            assert get_compute_dtype() == "bf16"
            bf = x.cast_compute().numpy()[0]
            set_compute_dtype("fp16")
            fp = x.cast_compute().numpy()[0]
            set_compute_dtype("fp32")
            exact = x.cast_compute().numpy()[0]
            assert exact == np.float32(1.0 + 2**-9)
            assert bf == np.float32(1.0)          # 7-bit mantissa drops it
            assert fp == np.float32(1.0 + 2**-9)  # 10-bit mantissa keeps it
        finally:
            set_compute_dtype("fp16")

    def test_invalid_dtype_rejected(self):
        from repro.errors import GradientError
        from repro.nn import set_compute_dtype

        with pytest.raises(GradientError):
            set_compute_dtype("fp8")

    def test_training_under_bf16(self):
        from repro.nn import set_compute_dtype

        try:
            set_compute_dtype("bf16")
            model = TinyTransformerLM(
                vocab_size=16, d_model=16, d_ffn=32, num_heads=2,
                num_layers=2, max_seq=8, seed=11,
            )
            opt = MixedPrecisionAdam(model.parameters(), lr=2e-3)
            losses = []
            for batch in lm_synthetic_batches(16, 8, 8, 60, seed=12):
                loss = cross_entropy(model(batch.inputs, True), batch.targets)
                model.zero_grad()
                loss.backward()
                opt.step()
                losses.append(loss.item())
            assert np.mean(losses[-6:]) < np.mean(losses[:6]) - 0.2
        finally:
            set_compute_dtype("fp16")
