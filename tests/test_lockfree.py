"""Lock-free updating mechanism: gradient buffers and the engine's sweep."""

import threading

import numpy as np
import pytest

from repro.engine import AngelConfig, initialize
from repro.engine.angel import GradientBuffers
from repro.errors import ConfigurationError, GradientError
from repro.nn import (
    MixedPrecisionAdam, Tensor, TinyTransformerLM, cross_entropy, lm_synthetic_batches,
)
from repro.nn.tensor import round_fp16
from repro.telemetry import Telemetry
from repro.units import KiB, MiB


def tiny_model(seed=0):
    return TinyTransformerLM(
        vocab_size=16, d_model=16, d_ffn=32, num_heads=2, num_layers=2,
        max_seq=8, seed=seed,
    )


def lock_free_engine(model, lr=1e-3, update_interval=3, **overrides):
    config = dict(
        gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
        page_bytes=32 * KiB, lock_free=update_interval > 1,
        update_interval=update_interval,
    )
    config.update(overrides)
    return initialize(
        model, MixedPrecisionAdam(model.parameters(), lr=lr), AngelConfig(**config)
    )


def train(engine, batches) -> tuple[list[float], list[bool]]:
    """Run the Figure 6 loop; returns the losses and which steps swept."""
    losses, swept = [], []
    for batch in batches:
        loss = engine(batch)
        engine.backward(loss)
        swept.append(engine.step())
        losses.append(loss.item())
    return losses, swept


class TestGradientBuffers:
    def _params(self):
        return [
            Tensor(np.zeros(4, dtype=np.float32), requires_grad=True),
            Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True),
        ]

    def test_accumulate_and_drain(self):
        params = self._params()
        buffers = GradientBuffers(params)
        buffers.accumulate(0, np.ones(4, dtype=np.float32))
        buffers.accumulate(0, np.ones(4, dtype=np.float32))
        grad, count = buffers.drain(0)
        np.testing.assert_allclose(grad, 2.0)
        assert count == 2
        assert buffers.peek(0)[1] == 0

    def test_drain_clears_buffer(self):
        params = self._params()
        buffers = GradientBuffers(params)
        buffers.accumulate(0, np.ones(4, dtype=np.float32))
        buffers.drain(0)
        grad, count = buffers.drain(0)
        assert count == 0
        np.testing.assert_allclose(grad, 0.0)

    def test_peek_leaves_the_buffer_and_load_restores_it(self):
        buffers = GradientBuffers(self._params())
        buffers.accumulate(1, np.ones((2, 2), dtype=np.float32))
        grad, count = buffers.peek(1)
        grad += 5.0  # a copy: the buffer is untouched
        assert count == 1
        np.testing.assert_array_equal(buffers.peek(1)[0], 1.0)
        buffers.drain(1)
        buffers.load(1, np.full((2, 2), 3.0, dtype=np.float32), 2)
        grad, count = buffers.drain(1)
        np.testing.assert_array_equal(grad, 3.0)
        assert count == 2

    def test_shape_mismatch_rejected(self):
        buffers = GradientBuffers(self._params())
        with pytest.raises(GradientError):
            buffers.accumulate(0, np.ones(5, dtype=np.float32))

    def test_accumulate_all_skips_missing_grads(self):
        params = self._params()
        params[0].grad = np.ones(4, dtype=np.float32)
        buffers = GradientBuffers(params)
        buffers.accumulate_all()
        assert buffers.peek(0)[1] == 1
        assert buffers.peek(1)[1] == 0

    def test_fp16_rounding_in_buffer(self):
        params = [Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)]
        buffers = GradientBuffers(params)
        buffers.accumulate(0, np.array([1.0], dtype=np.float32))
        buffers.accumulate(0, np.array([2**-13], dtype=np.float32))
        grad, _ = buffers.drain(0)
        # 1 + 2^-13 rounds back to 1 in half precision.
        assert grad[0] == np.float32(1.0)


class TestEngineLockFree:
    """Algorithm 2 runs on the paged engine: one sweep per ``k`` steps."""

    @pytest.mark.parametrize("interval", [1, 3])
    def test_engine_matches_plain_loop(self, interval):
        """The engine is a plain loop over FP16-rounded parameters that
        buffers FP16 gradients and folds their mean every ``k`` steps —
        bit for bit, sync (k=1) and lock-free (k=3)."""
        batches = list(lm_synthetic_batches(16, 8, 4, 10, seed=1))
        model_a = tiny_model(seed=3)
        config = AngelConfig(
            gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
            page_bytes=32 * KiB, lock_free=interval > 1, update_interval=interval,
        )
        engine_losses = []
        with initialize(
            model_a, MixedPrecisionAdam(model_a.parameters(), lr=1e-3), config
        ) as engine:
            for batch in batches:
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
                engine_losses.append(loss.item())
            pages = [[t.read_array() for t in (m.master, m.moment1, m.moment2)]
                     for m in engine._managed]

        model_b = tiny_model(seed=3)
        opt_b = MixedPrecisionAdam(model_b.parameters(), lr=1e-3)
        params = model_b.parameters()
        for param in params:  # compute reads the buffered p'16
            param.data[...] = param.data.astype(np.float16).astype(np.float32)
        buffered = [np.zeros_like(p.data) for p in params]
        losses = []
        for step, batch in enumerate(batches, start=1):
            loss = cross_entropy(model_b(batch.inputs, True), batch.targets)
            model_b.zero_grad()
            loss.backward()
            losses.append(loss.item())
            for acc, param in zip(buffered, params):
                acc[...] = (acc + param.grad).astype(np.float16).astype(np.float32)
            if step % interval == 0:
                # The sweep's kernel: one Adam step, then cast(p32, FP16).
                opt_b.bump_step()
                for i, param in enumerate(params):
                    opt_b._apply(opt_b.master[i], buffered[i] / interval,
                                 opt_b.m[i], opt_b.v[i])
                    param.data[...] = round_fp16(opt_b.master[i])
                    buffered[i][...] = 0.0
        assert engine_losses == losses
        for i, states in enumerate(pages):
            for got, want in zip(states, (opt_b.master[i], opt_b.m[i], opt_b.v[i])):
                np.testing.assert_array_equal(got, want)

    def test_lag_gauge_counts_iterations_behind_the_sweep(self):
        telemetry = Telemetry()
        model = tiny_model()
        config = AngelConfig(
            gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
            page_bytes=32 * KiB, lock_free=True, update_interval=4,
            telemetry=telemetry,
        )
        gauge = telemetry.gauge("updater.lag_iterations")
        lags = []
        with initialize(
            model, MixedPrecisionAdam(model.parameters(), lr=1e-3), config
        ) as engine:
            for batch in lm_synthetic_batches(16, 8, 4, 4, seed=2):
                engine.backward(engine(batch))
                engine.step()
                lags.append(gauge.value)
        assert lags == [1, 2, 3, 0]


class TestStalenessLoop:
    """Algorithm 2's staleness knob on the engine: ``update_interval``
    iterations run between two update sweeps."""

    def test_sweep_count(self):
        with lock_free_engine(tiny_model(), update_interval=3) as engine:
            _, swept = train(engine, lm_synthetic_batches(16, 8, 4, 10, seed=1))
            # 10 iterations at interval 3: sweeps at 3, 6 and 9; the tenth
            # iteration's gradients stay buffered for the next sweep.
            assert [i for i, ran in enumerate(swept, start=1) if ran] == [3, 6, 9]
            assert engine._pending == 1
            assert all(engine._buffers.peek(i)[1] == 1
                       for i in range(len(engine._buffers)))

    def test_both_modes_learn(self):
        for interval in (1, 4):
            with lock_free_engine(
                tiny_model(seed=5), lr=2e-3, update_interval=interval
            ) as engine:
                losses, _ = train(engine, lm_synthetic_batches(16, 8, 8, 120, seed=2))
            assert np.mean(losses[-8:]) < np.mean(losses[:8]) - 0.2, (
                f"interval={interval}"
            )

    def test_invalid_interval_rejected(self):
        for interval in (0, -1):
            with pytest.raises(ConfigurationError):
                AngelConfig(update_interval=interval)
        # Lock-free mode needs at least one deferred iteration.
        with pytest.raises(ConfigurationError):
            AngelConfig(lock_free=True, update_interval=1)


class TestUpdaterFailure:
    """A crash on the engine's state I/O thread must surface on the main
    thread at ``step()`` — never a silent death or a hung close."""

    def test_crash_is_reraised_on_main_thread(self, tmp_path):
        engine = lock_free_engine(
            tiny_model(seed=3), update_interval=2, gpu_memory_bytes=256 * KiB,
            ssd_bytes=16 * MiB, ssd_path=str(tmp_path / "ssd.bin"), pipeline=True,
        )
        batches = list(lm_synthetic_batches(16, 8, 4, 8, seed=4))
        crashed_on = []
        try:
            train(engine, batches[:1])  # the recording step starts the thread
            writeback = engine._writeback
            real_io = writeback._io_fn

            def exploding_io(fn):
                crashed_on.append(threading.current_thread())
                raise RuntimeError("injected updater crash")

            writeback._io_fn = exploding_io
            with pytest.raises(RuntimeError, match="injected updater crash"):
                train(engine, batches[1:])
            writeback._io_fn = real_io
        finally:
            with pytest.raises(RuntimeError, match="injected updater crash"):
                engine.close()
        assert crashed_on
        assert threading.main_thread() not in crashed_on
