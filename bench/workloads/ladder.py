"""``page_ladder``: the data plane alone, from a memcpy floor upward.

No model. A seeded move schedule over a 64 MiB working set is replayed
through ``PageAllocator.move_pages`` at 4 MiB pages (bandwidth-bound, the
paper's size) and at 64 KiB pages (per-page-overhead-bound), along
cpu->gpu, gpu->cpu, cpu->ssd and ssd->cpu, half of the tensors on
contiguous slots and half on single-page holes left by an interleaved
allocate/release. The seed orders the moves and fills the tensors. The traced pass also climbs the rungs
beneath ``move_pages`` — memcpy floor, arena backends, pool bookkeeping,
the out-of-process copy service, the writeback queue — each with the
same warm-up and repeat discipline.
"""

from __future__ import annotations

import mmap
import random
import time
import zlib

import numpy as np

from repro.hardware.device import DeviceKind
from repro.memory.allocator import PageAllocator
from repro.memory.arena import ArenaPoolBackend, FilePoolBackend
from repro.memory.pool import DevicePool
from repro.runtime.ioproc import PageCopyService
from repro.runtime.pipeline import WritebackQueue

from bench.common import KIB, MIB, Outcome, Stopwatch, best_window, median

PROCESSES = 3

WORKING_SET = 64 * MIB
PAGE_SIZES = {"4m": 4 * MIB, "64k": 64 * KIB}
#: Tensors per half (contiguous / fragmented); each half is 32 MiB.
TENSORS_PER_HALF = 4
TENSOR_BYTES = WORKING_SET // 2 // TENSORS_PER_HALF
EDGES = (
    ("cpu-gpu", DeviceKind.GPU),
    ("gpu-cpu", DeviceKind.CPU),
    ("cpu-ssd", DeviceKind.SSD),
    ("ssd-cpu", DeviceKind.CPU),
)
WARMUP_ROUNDS = 3
MIN_ROUNDS = 15
#: Repeats of every rung beneath ``move_pages`` (after WARMUP_ROUNDS).
RUNG_REPEATS = 15
#: Share of the traced pass's schedule budget replayed *with* wrappers on.
TRACED_SHARE = 0.3


class Half:
    """Half of the working set on its own three-tier allocator.

    The two halves never share a pool, so a returning contiguous tensor
    cannot land in a hole the fragmented half left behind.
    """

    def __init__(self, page_bytes: int, fragmented: bool, rng: random.Random):
        half_bytes = WORKING_SET // 2
        pools = {
            DeviceKind.GPU: DevicePool(DeviceKind.GPU, half_bytes, page_bytes),
            # Room for the fillers that hold the fragmentation in place.
            DeviceKind.CPU: DevicePool(DeviceKind.CPU, 2 * half_bytes, page_bytes),
            DeviceKind.SSD: DevicePool(DeviceKind.SSD, half_bytes, page_bytes,
                                       backend="file"),
        }
        self.allocator = PageAllocator(pools)
        if fragmented:
            self._fragment_cpu(page_bytes)
        self.tensors = []
        self.checksums = []
        for _ in range(TENSORS_PER_HALF):
            tensor = self.allocator.allocate(
                (TENSOR_BYTES // 4,), np.float32, DeviceKind.CPU
            )
            data = np.frombuffer(rng.randbytes(4096), dtype=np.float32)
            data = np.resize(data, tensor.shape)
            tensor.write_array(data)
            self.tensors.append(tensor)
            self.checksums.append(zlib.crc32(data.tobytes()))
        self.pages_per_tensor = len(self.tensors[0].page_list)

    def _fragment_cpu(self, page_bytes: int) -> None:
        """Fill the CPU pool with one-page tensors, release every other one.

        The survivors stay for the rig's life, so whenever a tensor comes
        back to the CPU tier it lands in single-page holes: no two of its
        pages are neighbours and no copy can coalesce. The pattern does
        not depend on the seed, so the amount of work does not either.
        """
        pool = self.allocator.pool(DeviceKind.CPU)
        fillers = [
            self.allocator.allocate((page_bytes,), np.uint8, DeviceKind.CPU)
            for _ in range(pool.num_pages)
        ]
        for filler in fillers[::2]:
            self.allocator.release(filler)

    def verify(self) -> bool:
        return all(
            zlib.crc32(tensor.read_array().tobytes()) == checksum
            for tensor, checksum in zip(self.tensors, self.checksums)
        )

    def close(self) -> None:
        self.allocator.close()


class SizeRig:
    """Both halves at one page size plus the seeded move schedule."""

    def __init__(self, label: str, seed: int):
        self.label = label
        self.page_bytes = PAGE_SIZES[label]
        rng = random.Random(f"{seed}/{label}")
        self.halves = {
            "contig": Half(self.page_bytes, False, rng),
            "frag": Half(self.page_bytes, True, rng),
        }
        #: ``[(edge, destination, half name, tensor index)]``: all tensors
        #: along one edge in a seeded order, then the next edge.
        self.schedule = []
        for edge, destination in EDGES:
            moves = [(half, index) for half in self.halves
                     for index in range(TENSORS_PER_HALF)]
            rng.shuffle(moves)
            self.schedule += [(edge, destination, half, index)
                              for half, index in moves]

    def round(self) -> "Round":
        """Replay the schedule once, timing every ``move_pages`` call."""
        result = Round()
        for edge, destination, half_name, index in self.schedule:
            half = self.halves[half_name]
            began = time.perf_counter()
            report = half.allocator.move_pages([half.tensors[index]], destination)
            result.add(edge, half_name, time.perf_counter() - began, report)
        return result

    def verify(self) -> bool:
        return all(half.verify() for half in self.halves.values())

    def close(self) -> None:
        for half in self.halves.values():
            half.close()


#: Columns of a ``Round`` cell.
SECONDS, BYTES, PAGES, COPY_CALLS, MOVES = range(5)


class Round:
    """One schedule replay, totalled per (edge, half)."""

    def __init__(self):
        self.cells: dict[tuple[str, str], list[float]] = {}

    def add(self, edge: str, half: str, seconds: float, report) -> None:
        cell = self.cells.setdefault((edge, half), [0.0, 0, 0, 0, 0])
        cell[SECONDS] += seconds
        cell[BYTES] += report.bytes_moved
        cell[PAGES] += report.pages_moved
        cell[COPY_CALLS] += report.copy_calls
        cell[MOVES] += 1

    def total(self, column: int, edges=None, half=None) -> float:
        return sum(
            cell[column] for (edge, name), cell in self.cells.items()
            if (edges is None or edge in edges) and (half is None or name == half)
        )

    def gb_per_s(self, edges=None, half=None) -> float:
        return (self.total(BYTES, edges, half)
                / self.total(SECONDS, edges, half) / 1e9)

    def pages_per_s(self) -> float:
        return self.total(PAGES) / self.total(SECONDS)


class Rig:
    def __init__(self, seed: int):
        self.sizes = {label: SizeRig(label, seed) for label in PAGE_SIZES}
        for _ in range(WARMUP_ROUNDS):
            for size in self.sizes.values():
                size.round()

    def close(self) -> None:
        for size in self.sizes.values():
            size.close()


def setup(ctx) -> Rig:
    return Rig(ctx.seed)


def _replay(rig: Rig, seconds: float, minimum: int, outcome: Outcome) -> dict:
    """Replay the 4 MiB schedule for half the budget, then the 64 KiB one.

    One page size at a time: alternating them lets each size's rounds
    evict the other's working set from the last-level cache, which costs
    the 4 MiB rounds a third of their bandwidth and measures the
    interleaving, not the allocator.
    """
    rounds = {label: [] for label in rig.sizes}
    for label, size in rig.sizes.items():
        watch = Stopwatch(seconds / len(rig.sizes), minimum)
        while watch.running(len(rounds[label])):
            outcome.attempted += len(size.schedule)
            try:
                rounds[label].append(size.round())
            except Exception as exc:
                outcome.failed += len(size.schedule)
                outcome.check(False, f"move schedule ({label}) raised {exc!r}")
                return rounds
    return rounds


def measure(ctx, rig: Rig) -> Outcome:
    outcome = Outcome(setup_samples=[time.perf_counter() - ctx.started])
    try:
        outcome.check(all(size.verify() for size in rig.sizes.values()),
                      "page_ladder: checksum lost during warm-up moves")
        if ctx.traced:
            _measure_traced(ctx, rig, outcome)
        else:
            rounds = _replay(rig, ctx.seconds, MIN_ROUNDS, outcome)
            if rounds["64k"] and rounds["4m"]:
                # Quietest window of rounds at each size (common.best_window).
                small = best_window([r.total(SECONDS) for r in rounds["64k"]])
                pages = rounds["64k"][0].total(PAGES)  # same schedule every round
                outcome.metrics["ops_per_s"] = pages * len(small) / sum(small)
                large = best_window([r.total(SECONDS) for r in rounds["4m"]])
                outcome.metrics["op_p50_ms"] = median(large) * 1e3
        outcome.check(all(size.verify() for size in rig.sizes.values()),
                      "page_ladder: checksum lost during the timed moves")
    finally:
        rig.close()
    return outcome


# ----------------------------------------------------------------------
# Traced pass: the schedule with spans, then the rungs beneath it
# ----------------------------------------------------------------------
def _measure_traced(ctx, rig: Rig, outcome: Outcome) -> None:
    # Imported here: the engine stack is no part of this workload's set-up.
    from bench.workloads.engine import Counts, install_wrappers

    metrics = outcome.metrics
    # Half of the budget replays the schedule, the rest climbs the rungs.
    # The allocator rungs are read off the unwrapped rounds; the wrapped
    # ones only price the wrappers (a third more per 64 KiB round).
    budget = ctx.seconds / 2
    rounds = _replay(rig, budget * (1 - TRACED_SHARE), MIN_ROUNDS, outcome)
    install_wrappers(ctx.tracer, Counts())
    try:
        traced = _replay(rig, budget * TRACED_SHARE, MIN_ROUNDS // 3, outcome)
    finally:
        ctx.tracer.remove_wrappers()
    if not (rounds["64k"] and rounds["4m"] and traced["64k"]):
        return
    metrics["trace.overhead_frac"] = (
        median([r.total(SECONDS) for r in traced["64k"]])
        / median([r.total(SECONDS) for r in rounds["64k"]]) - 1.0
    )
    ram_edges = ("cpu-gpu", "gpu-cpu")
    moved = {}
    for label, some in rounds.items():
        for edge, _ in EDGES:
            metrics[f"allocator.move_gb_per_s.{edge}.{label}"] = median(
                [r.gb_per_s((edge,), "contig") for r in some])
        metrics[f"allocator.move_gb_per_s.cpu-gpu.{label}.frag"] = median(
            [r.gb_per_s(("cpu-gpu",), "frag") for r in some])
        moved[label] = median([r.gb_per_s(ram_edges) for r in some])
    metrics["ladder.moved_gb_per_s"] = median([r.gb_per_s() for r in rounds["4m"]])
    metrics["ladder.pages_per_s"] = median([r.pages_per_s() for r in rounds["64k"]])
    small = rounds["64k"][0]
    for half in ("contig", "frag"):
        name = f"allocator.copy_calls_per_move.{half}"
        metrics[name] = outcome.exact[name] = (
            small.total(COPY_CALLS, half=half) / small.total(MOVES, half=half))
    metrics["allocator.us_per_page.64k"] = median(
        [r.total(SECONDS) * 1e6 / r.total(PAGES) for r in rounds["64k"]])

    tracer = ctx.tracer
    with tracer.span("ladder.floor"):
        floor = _floor_gb_per_s()
    metrics["floor.memcpy_gb_per_s"] = floor
    arena = {}
    for label, page_bytes in PAGE_SIZES.items():
        with tracer.span(f"ladder.arena.{label}"):
            arena[label] = _arena_rungs(page_bytes)
        for key, value in arena[label].items():
            metrics[f"arena.{key}_gb_per_s.{label}"] = value
    with tracer.span("ladder.pool"):
        metrics["pool.acquire_release_pages_per_s"] = _pool_rung()
    with tracer.span("ladder.ioproc"):
        ioproc = _ioproc_rungs()
    metrics["ioproc.roundtrip_us"] = ioproc["roundtrip_us"]
    with tracer.span("ladder.writeback"):
        metrics["pipeline.writeback_ops_per_s"] = _writeback_rung()
    for label in PAGE_SIZES:
        metrics[f"ioproc.copy_gb_per_s.{label}"] = ioproc[label]
        metrics[f"allocator.efficiency_vs_floor.{label}"] = moved[label] / floor
        # Each rung against the one beneath it.
        metrics[f"ratio.arena_vs_floor.{label}"] = arena[label]["ram_write"] / floor
        metrics[f"ratio.file_vs_ram.{label}"] = (
            arena[label]["file_write"] / arena[label]["ram_write"])
        metrics[f"ratio.move_vs_arena.{label}"] = (
            metrics[f"allocator.move_gb_per_s.cpu-gpu.{label}"]
            / arena[label]["ram_write"])
        metrics[f"ratio.ioproc_vs_move.{label}"] = (
            ioproc[label] / metrics[f"allocator.move_gb_per_s.cpu-gpu.{label}"])


def _repeat(fn) -> float:
    """Median seconds of ``fn()`` over RUNG_REPEATS after the warm-ups."""
    for _ in range(WARMUP_ROUNDS):
        fn()
    samples = []
    for _ in range(RUNG_REPEATS):
        began = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - began)
    return median(samples)


def _floor_gb_per_s() -> float:
    """One ``memoryview`` slice copy of the working set between two mmaps."""
    with mmap.mmap(-1, WORKING_SET) as src, mmap.mmap(-1, WORKING_SET) as dst:
        source, target = memoryview(src), memoryview(dst)
        try:
            source[:] = bytes(WORKING_SET)  # fault the pages in

            def copy():
                target[:] = source

            return WORKING_SET / _repeat(copy) / 1e9
        finally:
            source.release()
            target.release()


def _arena_rungs(page_bytes: int) -> dict:
    """Per-page ``write_from``/``readinto`` over the working set."""
    pages = WORKING_SET // page_bytes
    buffer = bytearray(page_bytes)
    out = {}
    backends = {
        "ram": ArenaPoolBackend(pages, page_bytes),
        "file": FilePoolBackend(pages, page_bytes),
    }
    try:
        for kind, backend in backends.items():
            def write():
                for index in range(pages):
                    backend.write_from(index, 0, buffer)

            def read():
                for index in range(pages):
                    backend.readinto(index, 0, buffer)

            out[f"{kind}_write"] = WORKING_SET / _repeat(write) / 1e9
            out[f"{kind}_read"] = WORKING_SET / _repeat(read) / 1e9
    finally:
        for backend in backends.values():
            backend.close()
    return out


def _pool_rung() -> float:
    """Pages per second through acquire_storage_run + release_storage."""
    page_bytes = PAGE_SIZES["64k"]
    run = 64
    with DevicePool(DeviceKind.CPU, WORKING_SET, page_bytes) as pool:
        def cycle():
            for storage in pool.acquire_storage_run(run):
                pool.release_storage(storage)

        return run / _repeat(cycle)


def _ioproc_rungs() -> dict:
    """``PageCopyService.copy`` between two shared arenas, per page size."""
    out = {}
    with PageCopyService() as service:
        for label, page_bytes in PAGE_SIZES.items():
            pages = WORKING_SET // page_bytes
            src = ArenaPoolBackend(pages, page_bytes, shared=True)
            dst = ArenaPoolBackend(pages, page_bytes, shared=True)
            try:
                runs = [(i * page_bytes, i * page_bytes, page_bytes)
                        for i in range(pages)]
                seconds = _repeat(
                    lambda: service.copy(src.descriptor(), dst.descriptor(), runs))
                out[label] = WORKING_SET / seconds / 1e9
                if label == "64k":
                    out["roundtrip_us"] = 1e6 * _repeat(
                        lambda: service.copy(src.descriptor(), dst.descriptor(), []))
            finally:
                src.close()
                dst.close()
    return out


def _writeback_rung() -> float:
    """No-op flushes per second through submit ... barrier."""
    count = 2000
    queue = WritebackQueue(lambda fn: fn())
    queue.start()
    try:
        def burst():
            for index in range(count):
                queue.submit(index % 8, _noop)
            queue.barrier()

        return count / _repeat(burst)
    finally:
        queue.close()


def _noop() -> None:
    pass
