"""``fleet_stream``: many short jobs with preempt -> snapshot -> resume.

Uses the engine the opposite way from the steady-state workloads:
construction, teardown and ``checkpoint.snapshot`` dominate, so work
moved into engine set-up to speed steady state shows up as a cost here.
The same job stream is replayed chunk after chunk until the time budget
is spent; every replay must make the same decisions.

The stream's *shape* (arrivals, tenants, priorities, step counts, depths)
is the repo's fixed seed-7 stream; ``--seed`` re-seeds every job's model
and data. Letting the seed redraw the shape too changes how much work a
chunk holds by +-8 %, which would read as run-to-run noise.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import repro.checkpoint.snapshot as snapshot_module
import repro.fleet.gateway as gateway_module
from repro.engine.angel import AngelModel
from repro.fleet import (
    FleetConfig,
    FleetGateway,
    JobFactory,
    TrafficConfig,
    generate_jobs,
)

from bench.common import Outcome, median

PROCESSES = 3

STREAM_SEED = 7
JOBS_PER_CHUNK = 40
MIN_CHUNKS = 2
#: Chunks of the traced pass run without wrappers, to price them.
UNTRACED_CHUNKS = 2


class Chunk:
    """One gateway over the seeded stream: built in set-up, run when timed."""

    def __init__(self, seed: int, workdir: str):
        traffic = TrafficConfig(seed=STREAM_SEED, num_jobs=JOBS_PER_CHUNK)
        self.jobs = [
            replace(job, workload=replace(
                job.workload, seed=seed * 1000 + job.job_id))
            for job in generate_jobs(traffic)
        ]
        self.gateway = FleetGateway(
            FleetConfig(seed=STREAM_SEED, traffic=traffic), workdir=workdir)
        self.report = None
        self.wall_s = 0.0

    def run(self) -> None:
        began = time.perf_counter()
        self.report = self.gateway.run(jobs=self.jobs)
        self.wall_s = time.perf_counter() - began

    @property
    def steps_executed(self) -> int:
        return sum(len(job.losses) for job in self.report.jobs)

    def decisions(self) -> tuple:
        """What a replay of the same seed must reproduce exactly."""
        report = self.report
        return (
            len(report.completed), report.preemptions,
            tuple(report.admission_order),
            tuple(tuple(job.losses) for job in report.jobs),
        )

    def close(self) -> None:
        pass  # the gateway holds nothing until run(), which cleans up


def setup(ctx) -> Chunk:
    return Chunk(ctx.seed, os.path.join(ctx.workdir, "chunk0"))


def _install_wrappers(tracer) -> None:
    tracer.wrap(JobFactory, "engine", "fleet.engine_build")
    tracer.wrap(AngelModel, "close", "fleet.engine_close")
    tracer.wrap(gateway_module, "save_snapshot", "fleet.snapshot_save")
    tracer.wrap(snapshot_module, "load_snapshot", "fleet.snapshot_load")


def measure(ctx, first: Chunk) -> Outcome:
    outcome = Outcome(setup_samples=[time.perf_counter() - ctx.started])
    chunks: list[Chunk] = []
    traced_from = UNTRACED_CHUNKS if ctx.traced else None
    minimum = MIN_CHUNKS + (UNTRACED_CHUNKS if ctx.traced else 0)
    measured = 0.0
    mark = 0
    try:
        while len(chunks) < minimum or measured < ctx.seconds:
            if len(chunks) == traced_from:
                _install_wrappers(ctx.tracer)
                mark = ctx.tracer.mark()
            chunk = first if not chunks else Chunk(
                ctx.seed, os.path.join(ctx.workdir, f"chunk{len(chunks)}")
            )
            outcome.attempted += JOBS_PER_CHUNK
            try:
                chunk.run()
            except Exception as exc:
                outcome.failed += JOBS_PER_CHUNK
                outcome.check(False, f"fleet chunk raised {exc!r}")
                break
            chunks.append(chunk)
            measured += chunk.wall_s
            outcome.failed += JOBS_PER_CHUNK - len(chunk.report.completed)
    finally:
        if ctx.traced:
            ctx.tracer.remove_wrappers()
    if not chunks:
        return outcome
    expected = chunks[0].decisions()
    outcome.check(expected[0] == JOBS_PER_CHUNK,
                  "fleet did not complete every submitted job")
    outcome.check(all(chunk.decisions() == expected for chunk in chunks),
                  "fleet replay of one seed made different decisions")

    def jobs_per_s(some) -> float:
        return median([len(c.report.completed) / c.wall_s for c in some])

    def ms_per_step(some) -> float:
        return median([c.wall_s * 1e3 / c.steps_executed for c in some])

    metrics = outcome.metrics
    if not ctx.traced:
        # The quietest chunk, as ``common.best_window`` picks a window.
        metrics["ops_per_s"] = max(
            len(c.report.completed) / c.wall_s for c in chunks)
        metrics["op_p50_ms"] = min(
            c.wall_s * 1e3 / c.steps_executed for c in chunks)
        return outcome

    tracer = ctx.tracer
    plain, traced = chunks[:UNTRACED_CHUNKS], chunks[UNTRACED_CHUNKS:]
    report = chunks[0].report

    def p50_ms(name: str) -> float:
        durations = tracer.durations(name, mark)
        return median(durations) * 1e3 if durations else 0.0

    metrics["trace.overhead_frac"] = ms_per_step(traced) / ms_per_step(plain) - 1.0
    metrics["fleet.jobs_per_s"] = jobs_per_s(plain)
    metrics["fleet.ms_per_step"] = ms_per_step(plain)
    metrics["fleet.engine_build_ms_p50"] = p50_ms("fleet.engine_build")
    metrics["fleet.engine_close_ms_p50"] = p50_ms("fleet.engine_close")
    metrics["fleet.snapshot_save_ms_p50"] = p50_ms("fleet.snapshot_save")
    metrics["fleet.snapshot_load_ms_p50"] = p50_ms("fleet.snapshot_load")
    metrics["fleet.steps_executed"] = chunks[0].steps_executed
    metrics["fleet.preemptions"] = report.preemptions
    metrics["fleet.virtual_jobs_per_hour"] = report.jobs_per_hour()
    metrics["fleet.p99_queue_latency_virtual_s"] = report.latency_percentile(0.99) or 0.0
    for name in ("fleet.steps_executed", "fleet.preemptions",
                 "fleet.virtual_jobs_per_hour",
                 "fleet.p99_queue_latency_virtual_s"):
        outcome.exact[name] = metrics[name]
    return outcome
