"""Property-based tests of autograd and lock-free semantics."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import MixedPrecisionAdam, Tensor, softmax
from repro.nn.functional import layer_norm
from repro.nn.tensor import round_fp16


small_floats = hnp.arrays(
    dtype=np.float32,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
    elements=st.floats(min_value=-5, max_value=5, width=32),
)


@settings(max_examples=60, deadline=None)
@given(x=small_floats)
def test_softmax_rows_sum_to_one(x):
    out = softmax(Tensor(x)).numpy()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-4)
    assert (out >= 0).all()


@settings(max_examples=60, deadline=None)
@given(x=small_floats)
def test_sum_gradient_is_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    np.testing.assert_array_equal(t.grad, np.ones_like(x))


@settings(max_examples=60, deadline=None)
@given(
    x=hnp.arrays(
        dtype=np.float32,
        shape=st.tuples(st.integers(1, 5), st.integers(2, 8)),
        elements=st.floats(min_value=-3, max_value=3, width=32),
    )
)
def test_layer_norm_output_standardized(x):
    dim = x.shape[-1]
    w = Tensor(np.ones(dim, dtype=np.float32))
    b = Tensor(np.zeros(dim, dtype=np.float32))
    out = layer_norm(Tensor(x), w, b).numpy()
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
    # Variance ~1 unless the row is (near-)constant.
    variances = x.var(axis=-1)
    for row_var, row in zip(variances, out):
        if row_var > 1e-3:
            np.testing.assert_allclose(row.var(), 1.0, atol=0.05)


@settings(max_examples=40, deadline=None)
@given(
    grads=st.lists(
        hnp.arrays(
            dtype=np.float32, shape=(4,),
            elements=st.floats(min_value=-1, max_value=1, width=32),
        ),
        min_size=1, max_size=6,
    )
)
def test_gradient_buffer_accumulation_matches_fp16_sum(grads):
    """Buffered accumulation equals an FP16-rounded running sum."""
    from repro.engine.angel import GradientBuffers

    param = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    buffers = GradientBuffers([param])
    expected = np.zeros(4, dtype=np.float32)
    for grad in grads:
        buffers.accumulate(0, grad)
        expected = (expected + grad).astype(np.float16).astype(np.float32)
    drained, count = buffers.drain(0)
    assert count == len(grads)
    np.testing.assert_array_equal(drained, expected)


@settings(max_examples=30, deadline=None)
@given(
    grad=hnp.arrays(
        dtype=np.float32, shape=(3,),
        elements=st.floats(min_value=-2, max_value=2, width=32),
    ),
)
def test_sweep_kernel_equals_step(grad):
    """The engine sweep's kernel — ``bump_step``, ``_apply`` on staged
    copies of the states, ``round_fp16`` — == step() with .grad set."""
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt_a = MixedPrecisionAdam([a], lr=1e-2)
    opt_b = MixedPrecisionAdam([b], lr=1e-2)

    a.grad = grad.copy()
    opt_a.step()

    opt_b.bump_step()
    staged = [opt_b.master[0].copy(), opt_b.m[0].copy(), opt_b.v[0].copy()]
    opt_b._apply(staged[0], grad.copy(), staged[1], staged[2])
    b.data[...] = round_fp16(staged[0])

    np.testing.assert_array_equal(a.data, b.data)
    for want, got in zip((opt_a.master[0], opt_a.m[0], opt_a.v[0]), staged):
        np.testing.assert_array_equal(want, got)
