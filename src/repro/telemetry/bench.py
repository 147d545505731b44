"""``repro profile``: one instrumented training run plus its static proofs.

``run_profile`` trains the tiny functional GPT for a few steps with a live
:class:`~repro.telemetry.core.Telemetry` attached (spans + per-tier byte
counters), then plans, simulates and statically verifies one analytic
iteration on the same clock so the "scheduler" track lands in the same
trace. The result is what the command prints and the run report renders,
and serializes to ``BENCH_telemetry.json`` next to a Perfetto-openable
Chrome trace. It times nothing beyond that one run: throughput, overlap and
telemetry-overhead questions go to ``python3 -m bench``, which repeats
passes in fresh interpreters and reports spread.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.telemetry.core import Telemetry
from repro.units import KiB, MiB

#: The profiled workload (mirrors ``repro train``'s).
LR = 2e-3
VOCAB_SIZE = 32
SEQ_LEN = 16
BATCH_SIZE = 8
#: Deliberately tight: evictions force traffic on both directions of
#: the GPU<->CPU edge, so the per-tier byte counters are all nonzero.
GPU_MEMORY_BYTES = 1 * MiB
CPU_MEMORY_BYTES = 64 * MiB
SSD_BYTES = 32 * MiB
PAGE_BYTES = 64 * KiB
#: Analytic-simulator side: model-zoo name, servers and micro-batch.
SIM_MODEL = "gpt3-13b"
SIM_SERVERS = 1
SIM_BATCH = 4


@dataclass(frozen=True)
class ProfileConfig:
    """Knobs for one profiling run."""

    steps: int = 10
    layers: int = 2
    seed: int = 0
    lock_free: bool = False
    #: Drive the profiled run through the pipelined runtime.
    pipeline: bool = False
    #: Run the repro.observe watchdog at each step boundary; fired alerts
    #: and the residency timeline land in the BENCH payload.
    watch: bool = True


def _train_once(
    config: ProfileConfig, telemetry, watchdog=None
) -> tuple[float, list[float], list[dict], dict]:
    """The training run; returns (elapsed, losses, memory_timeline,
    pipeline_report)."""
    from repro.engine.angel import AngelConfig
    from repro.fleet.factory import JobFactory, JobWorkload

    factory = JobFactory(JobWorkload(
        vocab_size=VOCAB_SIZE, layers=config.layers, seq_len=SEQ_LEN,
        batch_size=BATCH_SIZE, lr=LR, seed=config.seed,
    ))
    clock = telemetry.clock
    engine = factory.engine(AngelConfig(
        gpu_memory_bytes=GPU_MEMORY_BYTES,
        cpu_memory_bytes=CPU_MEMORY_BYTES,
        ssd_bytes=SSD_BYTES,
        page_bytes=PAGE_BYTES,
        lock_free=config.lock_free,
        update_interval=4 if config.lock_free else 1,
        pipeline=config.pipeline,
        telemetry=telemetry,
    ))
    losses = []
    try:
        started = clock.perf()
        for step, batch in enumerate(factory.batches(config.steps)):
            loss = engine(batch)
            engine.backward(loss)
            engine.step()
            losses.append(loss.item())
            if watchdog is not None:
                watchdog.observe_engine(engine, step=step + 1)
        elapsed = clock.perf() - started
        timeline = engine.forensics.timeline_payload()
        pipeline_report = engine.pipeline_report()
    finally:
        engine.close()
    return elapsed, losses, timeline, pipeline_report


def _simulate_once(telemetry) -> tuple[dict, dict]:
    """Plan + simulate one analytic iteration on the shared telemetry.

    Returns ``(simulated metrics, verification payload)`` — the plan the
    simulator ran is also statically verified (see
    :mod:`repro.analysis.verifier`), so every profile proves its own
    schedule.
    """
    from repro.analysis.verifier import verify_plan
    from repro.hardware.cluster import a100_cluster
    from repro.models import get_model
    from repro.scheduler.unified import UnifiedScheduler

    scheduler = UnifiedScheduler(a100_cluster(SIM_SERVERS), telemetry=telemetry)
    result = scheduler.simulate(get_model(SIM_MODEL), SIM_BATCH)
    verification = verify_plan(result.plan, scheduler.gpu_budget).to_dict()
    simulated = {
        "model": SIM_MODEL,
        "micro_batch": SIM_BATCH,
        "iteration_time_seconds": result.iteration_time,
        "samples_per_second": result.samples_per_second,
        "gpu_busy_fraction": result.gpu_busy_fraction,
        "pcie_busy_fraction": result.pcie_busy_fraction,
    }
    return simulated, verification


def run_profile(
    config: ProfileConfig | None = None, telemetry: Telemetry | None = None
) -> tuple[dict, Telemetry]:
    """One instrumented run; returns (report, telemetry-with-spans).

    The report is the ``BENCH_telemetry.json`` payload; the returned
    telemetry still holds the span records, so callers can additionally
    ``telemetry.tracer.save_chrome_trace(path)``.
    """
    config = config or ProfileConfig()
    telemetry = telemetry or Telemetry()

    watchdog = None
    if config.watch:
        from repro.observe.watchdog import Watchdog, WatchdogConfig

        watchdog = Watchdog(
            telemetry=telemetry,
            config=WatchdogConfig(
                update_interval=4 if config.lock_free else 1
            ),
        )

    elapsed, losses, memory_timeline, pipeline_report = _train_once(
        config, telemetry, watchdog
    )
    simulated, verification = _simulate_once(telemetry)

    # The coordinator protocol is verified alongside the schedule: both
    # are static proofs the bench carries with its numbers (milliseconds
    # at the default 2-worker/depth-6 bound).
    from repro.analysis.protocol import explore_protocol

    protocol_verification = explore_protocol(depth=6).to_dict()

    dump = telemetry.dump()
    counters = dump["metrics"]["counters"]
    page_edges = {
        key: value for key, value in counters.items()
        if key.startswith("pages.moved_bytes")
    }
    report = {
        "benchmark": "telemetry_profile",
        "config": asdict(config),
        "train": {
            "steps": config.steps,
            "elapsed_seconds": elapsed,
            "steps_per_second": (
                config.steps / elapsed if elapsed > 0 else float("inf")
            ),
            "final_loss": losses[-1] if losses else None,
        },
        "simulated": simulated,
        "verification": verification,
        "protocol_verification": protocol_verification,
        "per_tier_edge_bytes": page_edges,
        "pipeline": pipeline_report,
        "memory_timeline": memory_timeline,
        "alerts": watchdog.payload() if watchdog is not None else [],
        "telemetry": dump,
    }
    return report, telemetry


def save_profile(report: dict, path) -> None:
    """Write the ``BENCH_telemetry.json`` payload."""
    import json
    from pathlib import Path

    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True))
