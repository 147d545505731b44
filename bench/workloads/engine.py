"""The three engine workloads: ``gpu_resident``, ``gpu_tight``, ``ssd_pipeline``.

One model recipe, three memory budgets. The loop is the paper's Figure 6
loop (``loss = engine(batch); engine.backward(loss); engine.step()``),
one caller, closed loop, timed per step from outside the engine.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.engine.angel import AngelConfig
from repro.errors import OutOfMemoryError
from repro.fleet.factory import JobFactory, JobWorkload
from repro.memory.allocator import PageAllocator
from repro.memory.pool import DevicePool
from repro.nn.functional import cross_entropy
from repro.observe.forensics import ForensicRecorder
from repro.resilience.faults import FaultPlan
from repro.runtime.pipeline import PrefetchWorker, WritebackQueue
from repro.telemetry.core import Telemetry

from bench.common import (
    KIB,
    MIB,
    MODEL,
    WARMUP_STEPS,
    Outcome,
    Stopwatch,
    best_window,
    median,
    percentile,
)

PROCESSES = 3

#: Batches are drawn once from ``JobFactory.batches`` and cycled, so the
#: time-bounded loop never runs out and every run sees the same stream.
BATCH_POOL = 32
#: Timed steps run regardless of the time budget (keeps medians defined
#: on a slow machine and under ``--seconds 1``).
MIN_STEPS = 20
#: Steps the loss oracle replays on the reference configuration.
ORACLE_STEPS = WARMUP_STEPS + 5
#: Timed steps of each comparison variant on the traced pass.
VARIANT_STEPS = 20
#: ``update_interval`` of the lock-free variant (VARIANT_STEPS is a multiple).
LOCKFREE_INTERVAL = 4
#: Share of the traced pass's budget run *without* wrappers, to price them.
UNTRACED_SHARE = 0.3


def _angel_config(name: str, seed: int, **overrides) -> AngelConfig:
    """The engine configuration of workload ``name`` (see bench/README.md)."""
    common = dict(page_bytes=64 * KIB, cpu_memory_bytes=256 * MIB)
    if name == "gpu_resident":
        specific = dict(gpu_memory_bytes=256 * MIB)
    elif name == "gpu_tight":
        specific = dict(gpu_memory_bytes=1 * MIB)
    elif name == "ssd_pipeline":
        specific = dict(
            gpu_memory_bytes=8 * MIB, ssd_bytes=256 * MIB, pipeline=True,
            # Emulated per-I/O SSD latency, the regime the repo's own
            # pipeline comparison (telemetry/bench.py) uses.
            fault_plan=FaultPlan(seed=seed, latency_rate=1.0,
                                 latency_seconds=0.0005),
        )
    else:
        raise KeyError(name)
    return AngelConfig(**{**common, **specific, **overrides})


def _no_span(name: str):
    return nullcontext()


class Rig:
    """A built, warmed-up engine with its batch stream."""

    def __init__(self, name: str, seed: int, steps_before_timing: int = WARMUP_STEPS,
                 **overrides):
        self.factory = JobFactory(JobWorkload(seed=seed, **MODEL))
        began = time.perf_counter()
        self.engine = self.factory.engine(_angel_config(name, seed, **overrides))
        self.build_s = time.perf_counter() - began
        self.batches = self.factory.batches(BATCH_POOL)
        self.losses: list[float] = []
        self.steps = 0
        for _ in range(steps_before_timing):
            self.step()

    def step(self, span=_no_span) -> None:
        """One Figure 6 iteration; ``span`` brackets its three calls."""
        batch = self.batches[self.steps % BATCH_POOL]
        with span("engine.forward"):
            loss = self.engine(batch)
        with span("engine.backward"):
            self.engine.backward(loss)
        with span("engine.update"):
            self.engine.step()
        self.losses.append(loss.item())
        self.steps += 1

    def timed_steps(self, count: int) -> list[float]:
        durations = []
        for _ in range(count):
            began = time.perf_counter()
            self.step()
            durations.append(time.perf_counter() - began)
        return durations

    def close(self) -> float:
        began = time.perf_counter()
        self.engine.close()
        return time.perf_counter() - began


def setup(ctx) -> Rig:
    return Rig(ctx.workload, ctx.seed)


def _timed_loop(rig: Rig, seconds: float, minimum: int, outcome: Outcome,
                tracer=None) -> list[float]:
    """Step until the budget is spent; a step that raises ends the loop."""
    durations: list[float] = []
    span = tracer.span if tracer is not None else _no_span
    watch = Stopwatch(seconds, minimum)
    while watch.running(len(durations)):
        outcome.attempted += 1
        began = time.perf_counter()
        try:
            rig.step(span)
        except Exception as exc:  # the engine's state is unknown after this
            outcome.failed += 1
            outcome.check(False, f"step {rig.steps} raised {exc!r}")
            break
        durations.append(time.perf_counter() - began)
    return durations


def _reference_losses(name: str, seed: int, steps: int) -> list[float]:
    """Losses of the *other* residency regime for the same seed.

    ``gpu_resident`` is checked against the demand-fetching configuration
    and the other two against the resident one, so the three workloads
    are transitively bit-identical without any run depending on another
    process's output.
    """
    other = "gpu_tight" if name == "gpu_resident" else "gpu_resident"
    rig = Rig(other, seed, steps_before_timing=steps)
    rig.close()
    return rig.losses


def _pipeline_snapshot(engine) -> dict:
    report = engine.pipeline_report()
    prefetch = report.get("prefetch") or {}
    writeback = report.get("writeback") or {}
    return {
        "stall_s": report.get("stall_seconds", 0.0),
        "demand_s": report.get("demand_fetch_seconds", 0.0),
        "cached_layers": report.get("cached_layers_live", 0),
        "prefetched_groups": prefetch.get("prefetched_groups", 0),
        "abandoned": prefetch.get("abandoned", 0),
        "deferred": prefetch.get("deferred", 0),
        "flushed": writeback.get("flushed", 0),
    }


def _check_pipeline_engaged(outcome: Outcome, before: dict, after: dict) -> None:
    """The SSD workload must not silently stop exercising its mechanism."""
    outcome.check(after["cached_layers"] > 0,
                  "ssd_pipeline: no layer in the live GPU cache")
    outcome.check(after["flushed"] > before["flushed"],
                  "ssd_pipeline: writeback queue flushed nothing")
    outcome.check(after["prefetched_groups"] > before["prefetched_groups"],
                  "ssd_pipeline: prefetch worker staged nothing")


def measure(ctx, rig: Rig) -> Outcome:
    outcome = Outcome(setup_samples=[time.perf_counter() - ctx.started])
    if ctx.traced:
        _measure_traced(ctx, rig, outcome)
    else:
        before = _pipeline_snapshot(rig.engine)
        durations = _timed_loop(rig, ctx.seconds, MIN_STEPS, outcome)
        after = _pipeline_snapshot(rig.engine)
        rig.close()
        if durations:
            quiet = best_window(durations)
            outcome.metrics["ops_per_s"] = len(quiet) / sum(quiet)
            outcome.metrics["op_p50_ms"] = median(quiet) * 1e3
        if ctx.workload == "ssd_pipeline":
            _check_pipeline_engaged(outcome, before, after)
    _check_losses(ctx, rig, outcome)
    return outcome


def _check_losses(ctx, rig: Rig, outcome: Outcome) -> None:
    steps = min(ORACLE_STEPS, len(rig.losses))
    reference = _reference_losses(ctx.workload, ctx.seed, steps)
    outcome.check(
        rig.losses[:steps] == reference[:steps],
        f"{ctx.workload}: losses differ from the reference regime "
        f"within {steps} steps",
    )


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
class Counts:
    """What the wrapped calls did, counted at the boundary they are timed."""

    def __init__(self):
        self.pages_moved = 0
        self.bytes_moved = 0
        self.copy_calls = 0
        self.move_ooms = 0
        self.pool_ooms = 0

    def moved(self, report) -> None:
        self.pages_moved += report.pages_moved
        self.bytes_moved += report.bytes_moved
        self.copy_calls += report.copy_calls

    def move_raised(self, exc) -> None:
        if isinstance(exc, OutOfMemoryError):
            self.move_ooms += 1

    def pool_raised(self, exc) -> None:
        if isinstance(exc, OutOfMemoryError):
            self.pool_ooms += 1


def install_wrappers(tracer, counts: Counts) -> None:
    """Spans around the page path's public calls (traced pass only)."""
    tracer.wrap(PageAllocator, "move_pages", "allocator.move_pages",
                on_return=counts.moved, on_raise=counts.move_raised)
    tracer.wrap(DevicePool, "acquire_storage_run", "pool.acquire",
                on_raise=counts.pool_raised)
    tracer.wrap(DevicePool, "release_storage", "pool.release")
    tracer.wrap(ForensicRecorder, "capture", "forensics.capture")
    tracer.wrap(PrefetchWorker, "await_layer", "pipeline.await_layer")
    tracer.wrap(WritebackQueue, "submit", "writeback.submit")
    tracer.wrap(WritebackQueue, "wait", "writeback.wait")
    tracer.wrap(WritebackQueue, "barrier", "writeback.barrier")


def _measure_traced(ctx, rig: Rig, outcome: Outcome) -> None:
    tracer = ctx.tracer
    metrics = outcome.metrics
    untraced = _timed_loop(
        rig, ctx.seconds * UNTRACED_SHARE, MIN_STEPS // 2, outcome
    )
    counts = Counts()
    install_wrappers(tracer, counts)
    try:
        before = _pipeline_snapshot(rig.engine)
        mark = tracer.mark()
        traced = _timed_loop(
            rig, ctx.seconds * (1 - UNTRACED_SHARE), MIN_STEPS, outcome, tracer
        )
        after = _pipeline_snapshot(rig.engine)
        until = tracer.mark()
        gpu_peak = rig.engine.memory_report()["gpu"]["peak_pages"]
        with tracer.span("engine.close"):
            close_s = rig.close()
    finally:
        tracer.remove_wrappers()
    if not traced or not untraced:
        return
    steps = len(traced)
    totals = tracer.totals(mark, until)

    def per_step(name: str, key: str, scale: float = 1.0) -> float:
        return totals.get(name, {}).get(key, 0) * scale / steps

    step_p50 = median(traced)
    plain_p50 = median(untraced)
    metrics["trace.overhead_frac"] = step_p50 / plain_p50 - 1.0
    metrics["engine.forward_ms_p50"] = median(tracer.durations("engine.forward", mark)) * 1e3
    metrics["engine.backward_ms_p50"] = median(tracer.durations("engine.backward", mark)) * 1e3
    metrics["engine.update_ms_p50"] = median(tracer.durations("engine.update", mark)) * 1e3
    # The traced steps' own median, so that per-step busy times below
    # can be read as shares of it.
    metrics["engine.step_p50_ms"] = step_p50 * 1e3
    metrics["engine.step_p95_ms"] = percentile(traced, 0.95) * 1e3
    metrics["engine.build_ms"] = rig.build_s * 1e3
    metrics["engine.close_s"] = close_s
    metrics["engine.gpu_peak_pages"] = gpu_peak
    compute_p50 = _bare_model_p50(rig)
    metrics["nn.compute_ms_p50"] = compute_p50 * 1e3
    metrics["engine.overhead_frac"] = 1.0 - compute_p50 / plain_p50

    move_calls = totals.get("allocator.move_pages", {}).get("calls", 0)
    metrics["allocator.move_calls_per_step"] = move_calls / steps
    metrics["allocator.pages_moved_per_step"] = counts.pages_moved / steps
    metrics["allocator.bytes_moved_per_step"] = counts.bytes_moved / steps
    metrics["allocator.copy_calls_per_step"] = counts.copy_calls / steps
    metrics["allocator.move_busy_ms_per_step"] = per_step("allocator.move_pages", "busy_s", 1e3)
    metrics["allocator.move_self_ms_per_step"] = per_step("allocator.move_pages", "self_s", 1e3)
    metrics["allocator.move_success_frac"] = (
        1.0 - counts.move_ooms / move_calls if move_calls else 0.0
    )
    metrics["pool.acquire_calls_per_step"] = per_step("pool.acquire", "calls")
    metrics["pool.acquire_busy_ms_per_step"] = per_step("pool.acquire", "busy_s", 1e3)
    metrics["pool.release_busy_ms_per_step"] = per_step("pool.release", "busy_s", 1e3)
    metrics["pool.oom_per_step"] = counts.pool_ooms / steps
    metrics["forensics.capture_calls_per_step"] = per_step("forensics.capture", "calls")
    metrics["forensics.capture_busy_ms_per_step"] = per_step("forensics.capture", "busy_s", 1e3)
    # Residency is a pure function of the access order on the two
    # single-threaded workloads; with the prefetch thread it is not.
    if ctx.workload != "ssd_pipeline":
        for name in ("allocator.move_calls_per_step",
                     "allocator.pages_moved_per_step",
                     "allocator.bytes_moved_per_step",
                     "allocator.copy_calls_per_step",
                     "pool.acquire_calls_per_step", "pool.oom_per_step",
                     "forensics.capture_calls_per_step",
                     "engine.gpu_peak_pages"):
            outcome.exact[name] = metrics[name]

    if ctx.workload == "ssd_pipeline":
        _check_pipeline_engaged(outcome, before, after)
        delta = {key: after[key] - before[key] for key in after}
        metrics["pipeline.stall_ms_per_step"] = delta["stall_s"] * 1e3 / steps
        metrics["pipeline.demand_fetch_ms_per_step"] = delta["demand_s"] * 1e3 / steps
        metrics["pipeline.prefetched_groups_per_step"] = delta["prefetched_groups"] / steps
        metrics["pipeline.writeback_flushed_per_step"] = delta["flushed"] / steps
        metrics["pipeline.cached_layers_live"] = after["cached_layers"]
        metrics["pipeline.prefetch_abandoned"] = delta["abandoned"]
        metrics["pipeline.prefetch_deferred"] = delta["deferred"]
        metrics["pipeline.await_busy_ms_per_step"] = per_step("pipeline.await_layer", "busy_s", 1e3)
        metrics["pipeline.writeback_wait_ms_per_step"] = per_step("writeback.wait", "busy_s", 1e3)
        _ssd_variants(ctx, rig, outcome, plain_p50)
    if ctx.workload == "gpu_tight":
        _telemetry_variant(ctx, outcome)


def _bare_model_p50(rig: Rig) -> float:
    """Forward+backward of the bare model on the same batches, no engine."""
    model = rig.factory.model()
    durations = []
    for index in range(WARMUP_STEPS + VARIANT_STEPS):
        batch = rig.batches[index % BATCH_POOL]
        began = time.perf_counter()
        loss = cross_entropy(model(batch.inputs, True), batch.targets)
        model.zero_grad()
        loss.backward()
        durations.append(time.perf_counter() - began)
    return median(durations[WARMUP_STEPS:])


def _variant(name: str, seed: int, **overrides) -> tuple[list[float], list[float]]:
    """(step durations, losses) of a short run of ``name`` with ``overrides``."""
    rig = Rig(name, seed, **overrides)
    try:
        durations = rig.timed_steps(VARIANT_STEPS)
    finally:
        rig.close()
    return durations, rig.losses


def _ssd_variants(ctx, rig: Rig, outcome: Outcome, pipelined_p50: float) -> None:
    metrics = outcome.metrics
    sync, sync_losses = _variant(ctx.workload, ctx.seed, pipeline=False)
    steps = min(len(sync_losses), len(rig.losses))
    outcome.check(sync_losses[:steps] == rig.losses[:steps],
                  "ssd_pipeline: pipelined losses differ from the sync run")
    metrics["pipeline.speedup_vs_sync"] = median(sync) / pipelined_p50
    lockfree, lockfree_losses = _variant(
        ctx.workload, ctx.seed, pipeline=False, lock_free=True,
        update_interval=LOCKFREE_INTERVAL,
    )
    # Totals, not medians: only every fourth lock-free step pays a sweep,
    # so the median step would hide the update cost altogether.
    metrics["lockfree.speedup_vs_sync"] = sum(sync) / sum(lockfree)
    metrics["lockfree.loss_gap"] = abs(lockfree_losses[-1] - sync_losses[-1])


def _telemetry_variant(ctx, outcome: Outcome) -> None:
    """Two fresh, equally short runs: live ``Telemetry()`` vs none."""
    plain, _ = _variant(ctx.workload, ctx.seed)
    live, _ = _variant(ctx.workload, ctx.seed, telemetry=Telemetry())
    outcome.metrics["telemetry.overhead_frac"] = median(live) / median(plain) - 1.0
