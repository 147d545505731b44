"""The unified ``repro.api`` surface.

One import gives a downstream user the whole toolkit — the Figure 6
training interface, chaos testing, run reports and static verification —
without memorizing which subsystem owns what::

    from repro import api

    engine = api.initialize(model, optimizer, api.AngelConfig(pipeline=True))
    ...train...
    result = api.check(engine.executed_plan(),
                       gpu_budget_bytes=engine.config.gpu_memory_bytes)

Each function is a thin, documented entry point over the real subsystem
(:mod:`repro.engine`, :mod:`repro.resilience`, :mod:`repro.cluster`,
:mod:`repro.observe.report`, :mod:`repro.analysis.verifier`); the
subsystems remain importable
directly, and nothing here adds behavior — only a stable address.
Imports inside the functions keep ``import repro`` light.
"""

from __future__ import annotations

from repro.engine.angel import AngelConfig, AngelModel, initialize
from repro.protocols import FaultPlanLike, RetryPolicyLike, TelemetryLike


def chaos(config=None, workdir=None, telemetry=None):
    """Run the fault-injection harness; returns a ``ChaosReport``.

    ``config`` is a :class:`repro.resilience.ChaosConfig`; ``workdir``
    holds checkpoints (a fresh temp dir when omitted); ``telemetry``
    receives fault counters, retry latencies and watchdog alerts.
    """
    from repro.resilience import ChaosConfig, run_chaos

    if config is None:
        config = ChaosConfig()
    return run_chaos(config, workdir, telemetry=telemetry)


def cluster(config=None, workdir=None, telemetry=None):
    """Run an elastic multi-process cluster; returns a ``ClusterReport``.

    ``config`` is a :class:`repro.cluster.ClusterConfig` — real worker
    processes, rendezvous coordinator, heartbeat failure detection, and
    (when ``kill_rank``/``kill_at_step`` are set) a SIGKILL mid-step with
    checkpointed recovery. ``workdir`` holds checkpoints and the
    membership event log (a fresh temp dir when omitted); ``telemetry``
    receives the membership and heartbeat gauges.
    """
    from repro.cluster import ClusterConfig, run_cluster

    if config is None:
        config = ClusterConfig()
    return run_cluster(config, workdir, telemetry=telemetry)


def fleet(config=None, workdir=None, telemetry=None, jobs=None):
    """Run the multi-tenant fleet gateway; returns a ``FleetReport``.

    ``config`` is a :class:`repro.fleet.FleetConfig` — a deterministic
    traffic stream of training jobs admitted onto simulated nodes under
    fair-share scheduling, per-tenant page quotas and checkpoint-based
    preemption. ``workdir`` holds per-job preemption snapshots; ``jobs``
    (a list of :class:`repro.fleet.JobSpec`) replaces the generated
    traffic when given. ``workdir`` resolves explicit argument, then
    ``config.workdir``, then a fresh temp dir.
    """
    from dataclasses import replace

    from repro.fleet import FleetConfig, FleetGateway

    if config is None:
        config = FleetConfig()
    if telemetry is not None:
        config = replace(config, telemetry=telemetry)
    gateway = FleetGateway(config, workdir=workdir)
    return gateway.run(jobs=jobs)


def trace_collect(workdir, out=None, rollup=None):
    """Merge a run's per-process event streams; returns a ``CollectedTrace``.

    ``workdir`` is any cluster or fleet run directory whose processes
    exported telemetry under ``workdir/telemetry/``. The result bundles
    the merged Chrome trace (one lane per rank incarnation / job, every
    span at its own timestamp on the host's one monotonic clock), the
    fleet-wide metrics rollup and per-tenant traffic totals;
    ``out``/``rollup`` paths write the two artifacts, same as
    ``repro trace collect``.
    """
    from repro.telemetry.collect import TraceCollector

    collected = TraceCollector(workdir).collect()
    if out is not None:
        collected.save(out, rollup)
    return collected


def report(bench, out, trace=None, html=False):
    """Render a run report from a bench result or a cluster report.

    ``bench`` is the payload dict (or a path to one): a ``python3 -m bench
    run`` ``result.json`` or a ``repro cluster --report`` JSON. Returns the
    list of written paths, same as ``repro report build``.
    """
    from repro.observe.report import load_payload, write_report

    if not isinstance(bench, dict):
        bench = load_payload(bench)
    return write_report(bench, out, trace=trace, html=html)


def check(plan, gpu_budget_bytes, update_interval=1):
    """Statically verify an :class:`~repro.scheduler.unified.IterationPlan`.

    Works on any plan regardless of origin — simulated
    (``UnifiedScheduler.plan``), live (``engine.executed_plan()``) or
    hand-built — because all three are the same currency. Returns a
    :class:`repro.analysis.verifier.VerificationResult`.
    """
    from repro.analysis.verifier import verify_plan

    return verify_plan(
        plan, gpu_budget_bytes, update_interval=update_interval
    )


def check_protocol(depth=6, world_size=2):
    """Model-check the cluster coordinator's membership protocol.

    Exhaustively explores every interleaving of joins, crashes,
    barriers, evictions and re-formations up to ``depth`` actions,
    driving the *same* transition-rule table the real coordinator
    dispatches. Returns a
    :class:`repro.analysis.invariants.VerificationResult` whose
    violations (if any) carry minimal action-trace counterexamples.
    """
    from repro.analysis.protocol import ProtocolConfig, explore_protocol

    return explore_protocol(
        depth=depth, config=ProtocolConfig(world_size=world_size)
    )


def check_cluster(workdir):
    """Replay a finished cluster run against the protocol invariants.

    Reads ``membership_events.jsonl`` and the per-rank telemetry
    streams from ``workdir`` (a ``repro cluster`` output directory) and
    verifies the fencing discipline actually held, including
    byte-identical per-step collective sequences across ranks.
    """
    from repro.analysis.protocol import verify_cluster_workdir

    return verify_cluster_workdir(workdir)


__all__ = [
    "AngelConfig",
    "AngelModel",
    "FaultPlanLike",
    "RetryPolicyLike",
    "TelemetryLike",
    "chaos",
    "check",
    "check_cluster",
    "check_protocol",
    "cluster",
    "fleet",
    "initialize",
    "report",
    "trace_collect",
]
