"""Bench: the page path's two hand-set gates.

Not a paper table. Both gates are counts and a ratio, never absolute
times: a tight GPU pool is served without a single pool OOM or forensic
capture (the demand path asks ``free_pages`` before it takes), and the
cost of an acquire/release cycle does not grow with the size of the pool.
Copy coalescing per tier edge (one copy call per contiguous run) is a
tier-1 count in ``tests/test_allocator.py``; page-move throughput is
``bench/``'s ``page_ladder``.
"""

import time

from repro.engine.angel import AngelConfig
from repro.fleet.factory import JobFactory, JobWorkload
from repro.hardware.device import DeviceKind
from repro.memory.pool import DevicePool
from repro.units import KiB, MiB


def test_tight_pool_is_served_without_oom_or_forensics():
    """bench/'s ``gpu_tight`` in miniature: 5 steps under a 16-page pool."""
    factory = JobFactory(JobWorkload(
        seed=0, layers=4, d_model=64, d_ffn=256, num_heads=4, seq_len=32,
        batch_size=8, vocab_size=64,
    ))
    engine = factory.engine(AngelConfig(
        page_bytes=64 * KiB, cpu_memory_bytes=256 * MiB,
        gpu_memory_bytes=1 * MiB,
    ))
    ooms, captures = [], []
    try:
        for pool in engine.allocator.pools.values():
            attach = pool.oom_observer  # the allocator's forensic hook
            pool.oom_observer = (
                lambda exc, attach=attach: (ooms.append(exc), attach(exc)))
        capture = engine.forensics.capture
        engine.forensics.capture = (
            lambda *args: captures.append(args) or capture(*args))
        for batch in factory.batches(5):
            engine.backward(engine(batch))
            engine.step()
        gpu = engine.memory_report()["gpu"]
        # Not vacuous: every step demand-fetched into a full pool.
        assert engine.demand_fetches >= 5 * len(engine._managed)
        assert gpu["peak_pages"] == engine.allocator.pool(DeviceKind.GPU).num_pages
    finally:
        engine.close()
    assert ooms == [] and captures == []


def _cycle_seconds(num_pages: int, run: int = 64, cycles: int = 50) -> float:
    """Best-of-7 seconds per ``run``-page acquire + per-page release cycle."""
    with DevicePool(DeviceKind.CPU, num_pages * KiB, KiB, backend="null") as pool:
        best = float("inf")
        for _ in range(7):
            began = time.perf_counter()
            for _ in range(cycles):
                for storage in pool.acquire_storage_run(run):
                    pool.release_storage(storage)
            best = min(best, (time.perf_counter() - began) / cycles)
        assert pool.pages_in_use == 0
    return best


def test_acquire_release_cost_does_not_grow_with_the_pool():
    """A 64-page cycle on a 16 384-page pool costs at most 3x the same
    cycle on a 256-page pool (it was 59x with the sorted heap: 255 us vs
    14 980 us; the free-run structure reads ~1x)."""
    small, large = _cycle_seconds(256), _cycle_seconds(16384)
    print(f"\n64-page cycle: {small * 1e6:.0f} us on 256 pages, "
          f"{large * 1e6:.0f} us on 16384 pages ({large / small:.2f}x)")
    assert large <= 3 * small
