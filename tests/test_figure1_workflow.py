"""Integration: the six-step hierarchical-memory workflow of Figure 1.

"The GPU (1) fetches the parameters from the CPU, (2) performs forward and
backward computations on the GPU, and then (3) sends the calculated
gradients back to the CPU. The CPU (4) loads optimizer states from the SSD
storage, (5) performs optimizer updating on CPU, and (6) stores the
optimizer states on the SSD storage."

Each numbered step is observed through the functional engine's pools,
buffers and paged tensors over one real training iteration.
"""

import numpy as np
import pytest

from repro.engine import AngelConfig, initialize
from repro.hardware.device import DeviceKind
from repro.nn import MixedPrecisionAdam, TinyTransformerLM, lm_synthetic_batches
from repro.units import KiB, MiB


@pytest.fixture
def engine():
    model = TinyTransformerLM(
        vocab_size=16, d_model=16, d_ffn=32, num_heads=2, num_layers=2,
        max_seq=8, seed=21,
    )
    optimizer = MixedPrecisionAdam(model.parameters(), lr=1e-3)
    config = AngelConfig(
        gpu_memory_bytes=2 * MiB,
        cpu_memory_bytes=16 * MiB,
        ssd_bytes=16 * MiB,
        page_bytes=32 * KiB,
    )
    with initialize(model, optimizer, config) as wrapped:
        yield wrapped


def test_figure1_six_step_workflow(engine):
    batch = next(lm_synthetic_batches(16, 8, 4, 1, seed=22))
    gpu_pool = engine.allocator.pool(DeviceKind.GPU)
    ssd_pool = engine.allocator.pool(DeviceKind.SSD)

    # Before the iteration: FP16 params buffered on CPU, FP32 states on
    # SSD, nothing on the GPU.
    assert gpu_pool.pages_in_use == 0
    for managed in engine._managed:
        assert managed.fp16.device_kind == DeviceKind.CPU
        assert managed.master.device_kind == DeviceKind.SSD

    # (1) the forward fetches parameters CPU -> GPU.
    loss = engine(batch)
    assert gpu_pool.pages_in_use > 0
    touched = [m for m in engine._managed if m.first_access >= 0]
    assert len(touched) == len(engine._managed)

    # (2) computation happened against the fetched values: the loss is a
    # finite scalar produced from the paged FP16 parameters.
    assert np.isfinite(loss.item())

    # (3) backward sends gradients to the CPU buffers.
    engine.backward(loss)
    assert all(engine._buffers.peek(i)[1] == 1
               for i in range(len(engine._buffers)))

    # (4)-(6): the update sweep loads FP32 states from SSD, updates on
    # CPU, and stores them back. Capture SSD contents before and after.
    masters_before = [m.master.read_array().copy() for m in engine._managed]
    assert engine.step()
    for managed, before in zip(engine._managed, masters_before):
        after = managed.master.read_array()
        assert managed.master.device_kind == DeviceKind.SSD  # (6) stored back
        assert not np.array_equal(after, before)             # (5) updated
        # (4)+(5): the refreshed FP16 buffer equals the rounded master.
        np.testing.assert_array_equal(
            managed.fp16.read_array().astype(np.float32),
            after.astype(np.float16).astype(np.float32),
        )
    # Gradient buffers were consumed by the sweep.
    assert not any(engine._buffers.peek(i)[1]
                   for i in range(len(engine._buffers)))


def test_iteration_is_repeatable(engine):
    """The workflow loops: a second iteration behaves like the first."""
    losses = []
    for batch in lm_synthetic_batches(16, 8, 4, 3, seed=23):
        loss = engine(batch)
        engine.backward(loss)
        assert engine.step()
        losses.append(loss.item())
    assert all(np.isfinite(losses))
    report = engine.memory_report()
    assert report["ssd"]["pages_in_use"] > 0
    assert report["gpu"]["peak_pages"] <= engine.allocator.pool(
        DeviceKind.GPU
    ).num_pages
