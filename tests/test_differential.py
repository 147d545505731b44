"""Differential harness over the engine's page and state paths.

One hypothesis strategy draws an engine configuration — model shape,
page size, GPU pool, state tier, pipelining, lock-free interval and the
step at which a snapshot moves the run into a fresh engine — and runs it
beside the synchronous, all-GPU-resident engine at the same interval. The
pages only ever move bytes, so every run must match that reference bit
for bit: losses, FP16 and FP32 page bytes and buffered gradients. It also
checks that no page leaks and that the prefetch worker accounts for every
planned fetch group of every iteration.

The interpreter switches threads every 10 µs while it runs, so the
prefetch worker and the state I/O thread interleave with the training
thread far more often than at the default 5 ms.
"""

import os
import sys

import numpy as np
from hypothesis import given, reject, settings, strategies as st

from repro.checkpoint.trainer_state import capture_engine_state, restore_engine_state
from repro.engine import AngelConfig, initialize
from repro.engine.liveplan import record_live_trace
from repro.errors import OutOfMemoryError
from repro.hardware.device import DeviceKind
from repro.nn import MixedPrecisionAdam, TinyTransformerLM, lm_synthetic_batches
from repro.scheduler.unified import plan_iteration
from repro.units import KiB, MiB

VOCAB, SEQ, BATCH = 24, 8, 4


def pages(nbytes: int, page_bytes: int) -> int:
    return -(-nbytes // page_bytes)


@st.composite
def runs(draw):
    shape = dict(
        num_layers=draw(st.integers(1, 3)),
        # Odd widths: FP32 tensors end mid-page, and at small pages the
        # larger ones span several pages with a shared tail.
        d_model=2 * draw(st.integers(4, 28)),
        d_ffn=draw(st.integers(9, 120)),
    )
    page_bytes = 4 * KiB << draw(st.integers(0, 8))  # 4 KiB .. 1 MiB
    model = TinyTransformerLM(vocab_size=VOCAB, max_seq=SEQ, num_heads=2, **shape)
    fp16 = [sum(pages(2 * p.data.size, page_bytes) for p in m._parameters.values())
            for m in model.modules() if m._parameters]
    fp32 = sum(3 * pages(4 * p.data.size, page_bytes) for p in model.parameters())
    # From one layer's FP16 pages up to every page of the model.
    gpu_pages = draw(st.integers(max(fp16), sum(fp16) + fp32))
    steps = draw(st.integers(1, 6))
    return dict(
        shape=shape,
        interval=draw(st.sampled_from([1, 2, 4])),
        steps=steps,
        restore_at=draw(st.integers(0, steps)),
        config=dict(
            page_bytes=page_bytes,
            gpu_memory_bytes=gpu_pages * page_bytes,
            cpu_memory_bytes=(sum(fp16) + fp32 + 8) * page_bytes,
            ssd_bytes=(fp32 + 8) * page_bytes if draw(st.booleans()) else 0,
            pipeline=draw(st.booleans()),
        ),
    )


def build(shape, interval, **config):
    model = TinyTransformerLM(vocab_size=VOCAB, max_seq=SEQ, num_heads=2, seed=7, **shape)
    return initialize(model, MixedPrecisionAdam(model.parameters(), lr=3e-3), AngelConfig(
        lock_free=interval > 1, update_interval=interval, **config))


def train(engine, batches) -> list[float]:
    losses = []
    for batch in batches:
        loss = engine(batch)
        engine.backward(loss)
        engine.step()
        losses.append(loss.item())
    return losses


def state_bytes(engine) -> dict:
    """Every page-held byte plus the buffered gradients, by name."""
    engine.barrier()
    out = {}
    for m in engine._managed:
        out[f"fp16/{m.name}"] = m.fp16.read_array().view(np.uint16)
        for prefix, t in (("master", m.master), ("m", m.moment1), ("v", m.moment2)):
            out[f"{prefix}/{m.name}"] = t.read_array().view(np.uint32)
        grad, count = engine._buffers.peek(m.index)
        out[f"grad/{m.name}"] = grad.view(np.uint32)
        out[f"count/{m.name}"] = np.array([count])
    return out


def close_checked(engine, steps: int) -> None:
    """Check the prefetch accounting and the page ledger, then close.

    The worker is re-armed after every step, so a run of ``steps`` steps
    plans ``steps`` iterations (the first step records); draining the
    last one makes the count exact.
    """
    worker = engine._pipeline
    if worker is not None:
        worker.finish_iteration()
        stats = worker.stats()
        fetches = sum(group.fetch for group in worker._groups)
        assert stats["prefetched_groups"] + stats["abandoned"] == fetches * steps
    tensors = [t for m in engine._managed for t in (m.fp16, m.master, m.moment1, m.moment2)]
    held = {id(page) for t in tensors for page in t.page_list}
    pools = engine.allocator.pools
    assert sum(pool.pages_in_use for pool in pools.values()) == len(held)
    ssd = [pool._backend.path for kind, pool in pools.items() if kind == DeviceKind.SSD]
    engine.close()
    for tensor in tensors:
        tensor.release()
    assert all(pool.pages_in_use == 0 for pool in pools.values())
    assert not any(os.path.exists(path) for path in ssd)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(run=runs())
def test_engine_matches_sync_all_resident_run(run):
    shape, interval, steps, at = run["shape"], run["interval"], run["steps"], run["restore_at"]
    batches = list(lm_synthetic_batches(VOCAB, SEQ, BATCH, steps, seed=11))
    reference = build(shape, interval, page_bytes=64 * KiB,
                      gpu_memory_bytes=64 * MiB, cpu_memory_bytes=64 * MiB)
    try:
        want_losses = train(reference, batches)
        want = state_bytes(reference)
        if run["config"]["pipeline"]:
            # Algorithm 1 plans a layer's FP16 gradients on the GPU too,
            # so it refuses the tightest pools outright (ROADMAP item 4).
            try:
                plan_iteration(record_live_trace(reference), run["config"]["gpu_memory_bytes"],
                               page_bytes=run["config"]["page_bytes"], use_recompute=False)
            except OutOfMemoryError:
                reject()
    finally:
        reference.close()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        first = build(shape, interval, **run["config"])
        try:
            losses = train(first, batches[:at])
            snapshot = capture_engine_state(first, step=at)
        finally:
            close_checked(first, at)
        resumed = build(shape, interval, **run["config"])
        try:
            assert restore_engine_state(snapshot, resumed) == at
            losses += train(resumed, batches[at:])
            got = state_bytes(resumed)
        finally:
            close_checked(resumed, steps - at)
    finally:
        sys.setswitchinterval(switch)
    assert losses == want_losses
    assert got.keys() == want.keys()
    for name, array in want.items():
        np.testing.assert_array_equal(got[name], array, err_msg=name)
