"""``round_fp16``: the one float16 rounding path, against numpy's cast.

Every check compares bit patterns with numpy's round trip through
``np.float16`` (NaN only has to stay NaN). Arrays are built at or above
``FP16_KERNEL_MIN_SIZE`` so the float32 kernel, not the small-array
cast, is what runs; one test pins the two paths to each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.tensor import FP16_KERNEL_MIN_SIZE, round_fp16


def numpy_fp16(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # overflow to inf is the expected result
        half = x.astype(np.float16)
    return half.astype(np.float32)


def quiet_round_fp16(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # as for numpy's cast above
        return round_fp16(x)


def assert_bitwise_equal(x: np.ndarray) -> None:
    expected = numpy_fp16(x)
    got = quiet_round_fp16(x)
    assert got.dtype == np.float32 and got.shape == x.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    bad = np.flatnonzero(got[~nan].view(np.uint32) != expected[~nan].view(np.uint32))
    assert bad.size == 0, (
        f"{bad.size} mismatches, first input bits "
        f"{x[~nan][bad[0]].view(np.uint32):#010x}"
    )


def patterns(lo: int, hi: int, step: int = 1) -> np.ndarray:
    """float32 values of the bit patterns lo..hi-1, both signs."""
    bits = np.arange(lo, hi, step, dtype=np.uint32)
    return np.concatenate([bits, bits | np.uint32(0x80000000)]).view(np.float32)


def padded(values) -> np.ndarray:
    """``values`` repeated up to the kernel's minimum size."""
    x = np.asarray(values, dtype=np.float32)
    return np.resize(x, max(FP16_KERNEL_MIN_SIZE, x.size))


WINDOW = 1 << 11


def test_windows_around_every_binade_edge():
    # float16 binades start at 2**-14 (below: subnormals from 2**-24) and
    # end at 2**16 (overflow); 2**-25 is the half-ULP of the first subnormal.
    edges = [np.float32(2.0**k).view(np.uint32).item() for k in range(-26, 17)]
    x = np.concatenate([patterns(edge - WINDOW, edge + WINDOW) for edge in edges])
    assert x.size >= FP16_KERNEL_MIN_SIZE
    assert_bitwise_equal(x)


def test_every_pattern_across_the_overflow_edge():
    lo = np.float32(65504).view(np.uint32).item()
    hi = np.float32(65536).view(np.uint32).item()
    x = patterns(lo - WINDOW, hi + WINDOW)
    assert_bitwise_equal(x)
    assert np.isinf(quiet_round_fp16(padded([65520, -65520]))).all()
    assert (round_fp16(padded([65519.996])) == 65504).all()


@pytest.mark.parametrize("size", [1, FP16_KERNEL_MIN_SIZE])
def test_overflow_warns_like_numpy_cast(size):
    with pytest.warns(RuntimeWarning, match="overflow"):
        out = round_fp16(np.full(size, 70000.0, dtype=np.float32))
    assert np.isinf(out).all()


def test_dense_sample_of_the_subnormal_input_range():
    # Every 509th pattern below 2**-14 (~1.9 M values, both signs),
    # float32 subnormals and zero included.
    top = np.float32(2.0**-14).view(np.uint32).item()
    assert_bitwise_equal(patterns(0, top, 509))


def test_signed_zeros_and_infinities():
    x = padded([0.0, -0.0, np.inf, -np.inf, 1e-30, -1e-30, 3e38, -3e38])
    assert_bitwise_equal(x)
    out = quiet_round_fp16(x)[:8]
    assert np.signbit(out).tolist() == [False, True, False, True, False, True, False, True]
    assert out[2] == np.inf and out[3] == -np.inf


@pytest.mark.parametrize("bits", [0x7FC00000, 0xFFC00000, 0x7FFFFFFF, 0xFFFFFFFF,
                                  0x7F800001, 0xFF800001, 0x7FBFFFFF])
def test_nans_stay_nan(bits):
    x = padded(np.array([bits], dtype=np.uint32).view(np.float32))
    # A signalling NaN sets the invalid flag on arithmetic, as IEEE says.
    with np.errstate(invalid="ignore"):
        out = round_fp16(x)
    assert np.isnan(out).all()


def test_small_arrays_take_numpy_cast_with_the_same_result():
    rng = np.random.default_rng(0)
    x = (rng.standard_normal(FP16_KERNEL_MIN_SIZE) * 1e-5).astype(np.float32)
    whole = round_fp16(x)
    for size in (0, 1, 7, FP16_KERNEL_MIN_SIZE - 1):
        np.testing.assert_array_equal(
            round_fp16(x[:size]).view(np.uint32), whole[:size].view(np.uint32)
        )
    assert round_fp16(np.float32(1.0 + 2**-12).reshape(())).shape == ()


def test_non_contiguous_and_shaped_input():
    x = np.linspace(-70000, 70000, 4 * FP16_KERNEL_MIN_SIZE, dtype=np.float32)
    view = x.reshape(64, -1)[:, ::2]
    assert_bitwise_equal(np.ascontiguousarray(view))
    np.testing.assert_array_equal(quiet_round_fp16(view), numpy_fp16(view))


def test_rejects_anything_but_float32():
    with pytest.raises(TypeError):
        round_fp16(np.zeros(FP16_KERNEL_MIN_SIZE, dtype=np.float64))


@settings(max_examples=60, deadline=None)
@given(x=hnp.arrays(dtype=np.float32, shape=st.integers(1, 64),
                    elements=st.floats(width=32, allow_nan=True,
                                       allow_infinity=True)))
def test_property_matches_numpy_cast(x):
    assert_bitwise_equal(padded(x))


@pytest.mark.parametrize("interval", [1, 3])
def test_engine_bytes_match_numpy_cast(monkeypatch, interval):
    """20 steps of the bench model at 64 KiB pages, kernel vs numpy cast
    at every call site: losses, FP16 pages and FP32 states all equal."""
    from repro.checkpoint.trainer_state import capture_engine_state
    from repro.engine import angel
    from repro.engine.angel import AngelConfig
    from repro.fleet.factory import JobFactory, JobWorkload
    from repro.nn import optim, tensor
    from repro.units import KiB, MiB

    factory = JobFactory(JobWorkload(layers=4, d_model=64, d_ffn=256, num_heads=4,
                                     seq_len=32, batch_size=8, vocab_size=64))
    config = AngelConfig(page_bytes=64 * KiB, gpu_memory_bytes=16 * MiB,
                         cpu_memory_bytes=64 * MiB, lock_free=interval > 1,
                         update_interval=interval)

    def run():
        losses = []
        with factory.engine(config) as engine:
            for batch in factory.batches(20):
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
                losses.append(loss.item())
            arrays = capture_engine_state(engine).arrays
        return losses, arrays

    losses, arrays = run()
    calls = []

    def counted(x):
        calls.append(x.size)
        return numpy_fp16(x)

    for module in (tensor, optim, angel):
        monkeypatch.setattr(module, "round_fp16", counted)
    ref_losses, ref_arrays = run()
    assert max(calls) >= FP16_KERNEL_MIN_SIZE  # the kernel path was replaced
    assert losses == ref_losses
    assert arrays.keys() == ref_arrays.keys()
    assert any(name.startswith("fp16/") for name in arrays)
    for name in arrays:
        assert arrays[name].tobytes() == ref_arrays[name].tobytes(), name
