"""Bench: page-move throughput and copy coalescing per tier edge.

Not a paper table: this is the arena data plane's acceptance gate. The
zero-copy redesign moves a MoveGroup with one gather/scatter slice copy
per contiguous run of arena slots — O(runs), not O(pages). This gate
moves one 32-page group along every edge of the GPU/CPU/SSD hierarchy
and fails if any edge degenerates back to per-page copies, or if the
pages-moved/sec gauge (the number `repro profile` publishes into
BENCH_telemetry.json) stops being recorded.

Two further gates are counts and a ratio, never absolute times: a tight
GPU pool is served without a single pool OOM or forensic capture (the
demand path asks ``free_pages`` before it takes), and the cost of an
acquire/release cycle does not grow with the size of the pool.
"""

import time

from repro.engine.angel import AngelConfig
from repro.fleet.factory import JobFactory, JobWorkload
from repro.hardware.device import DeviceKind
from repro.memory.pool import DevicePool
from repro.telemetry.bench import ProfileConfig, _page_throughput
from repro.units import KiB, MiB


def test_page_move_throughput(run_once):
    config = ProfileConfig(steps=2)
    report = run_once(_page_throughput, config)

    edges = report["edges"]
    assert set(edges) == {"cpu->gpu", "gpu->cpu", "cpu->ssd", "ssd->cpu"}

    for edge, stats in edges.items():
        # Every edge moved the whole group...
        assert stats["pages_moved"] == report["group_pages"], edge
        assert stats["bytes_moved"] == (
            report["group_pages"] * report["page_bytes"]
        ), edge

        # ...in O(runs) copy calls. Fresh pools hand out consecutive
        # arena slots, so the whole 32-page group is a single contiguous
        # run: exactly one copy call, not one per page. Anything near
        # pages_moved means the coalescer regressed to the per-page path.
        assert stats["copy_calls"] == 1, (
            f"{edge}: {stats['copy_calls']} copy calls for "
            f"{stats['pages_moved']} pages — MoveGroup no longer coalesces"
        )
        assert stats["pages_per_copy_call"] == report["group_pages"], edge

        # The telemetry gauge behind BENCH_telemetry.json is live.
        assert stats["pages_moved_per_sec"] > 0, edge

    for edge, stats in sorted(edges.items()):
        print(
            f"\n{edge}: {stats['pages_moved']} pages in "
            f"{stats['copy_calls']} copy call(s), "
            f"{stats['pages_moved_per_sec']:.0f} pages/s"
        )


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
