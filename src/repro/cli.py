"""Command-line interface: plan, simulate, train and reproduce.

Entry points a downstream adopter needs without writing Python::

    python -m repro.cli models                     # the Table 4 zoo
    python -m repro.cli plan --model gpt3-28b --servers 1
    python -m repro.cli simulate --model gpt3-13b --servers 1 --batch 4
    python -m repro.cli train --steps 100 --lock-free --ssd
    python -m repro.cli check --schedule           # static verification
    python -m repro.cli experiment table5          # any table/figure
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.units import KiB, MiB


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.models import MODEL_ZOO

    print(f"{'name':<14} {'family':<7} {'#layer':>6} {'#head':>5} "
          f"{'d_model':>8} {'d_ffn':>7} {'#expert':>8} {'computed':>10}")
    for config in MODEL_ZOO.values():
        params = config.build(1, 128).param_count
        print(f"{config.name:<14} {config.family:<7} {config.num_layers:>6} "
              f"{config.num_heads:>5} {config.d_model:>8} {config.d_ffn:>7} "
              f"{config.num_experts or '-':>8} {params / 1e9:>9.1f}B")
    return 0


def _resolve_cluster(args: argparse.Namespace):
    """Build the cluster from --cluster FILE if given, else --servers."""
    if getattr(args, "cluster", None):
        from repro.hardware.config_io import load_cluster

        return load_cluster(args.cluster)
    from repro.hardware.cluster import a100_cluster

    return a100_cluster(args.servers)


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.engine.planner import CapacityPlanner
    from repro.models import get_model

    cluster = _resolve_cluster(args)
    planner = CapacityPlanner(cluster)
    config = get_model(args.model)
    print(f"cluster: {cluster.num_servers} server(s), {cluster.num_gpus} GPUs")
    for system in ("deepspeed", "angel-ptm"):
        layers = planner.max_layers(config, system, use_ssd=args.ssd)
        scaled = config.with_layers(layers)
        params = scaled.build(1, args.seq_len).param_count
        batch = planner.max_micro_batch(scaled, system, use_ssd=args.ssd)
        print(f"  {system:<10} max depth {layers:4d} layers "
              f"({params / 1e9:6.1f}B), max micro-batch {batch}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.models import get_model
    from repro.scheduler.unified import UnifiedScheduler

    cluster = _resolve_cluster(args)
    scheduler = UnifiedScheduler(cluster)
    result = scheduler.simulate(
        get_model(args.model), args.batch, seq_len=args.seq_len,
        use_ssd=args.ssd, lock_free=args.lock_free,
    )
    plan = result.plan
    print(f"model           : {args.model} x {plan.trace.num_layers} layers")
    print(f"cluster         : {cluster.num_gpus} GPUs "
          f"({cluster.num_servers} servers)")
    print(f"iteration time  : {result.iteration_time:.3f}s")
    print(f"throughput      : {result.samples_per_second:.2f} samples/s")
    print(f"GPU busy        : {result.gpu_busy_fraction:.1%}")
    print(f"PCIe busy       : {result.pcie_busy_fraction:.1%}")
    print(f"cached layers   : {plan.cache.num_cached}/{plan.trace.num_layers}")
    if args.lock_free:
        print(f"update staleness: {result.staleness:.2f} iterations")
    breakdown = result.breakdown()
    print("time by resource:")
    for kind in ("compute", "pcie", "nccl", "cpu", "ssd"):
        if breakdown[kind] > 0:
            print(f"  {kind:>8}: {breakdown[kind]:8.3f}s "
                  f"({breakdown[f'{kind}_fraction']:5.1%})")
    print(f"bottleneck      : {breakdown['critical_stream']}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.engine.angel import AngelConfig
    from repro.fleet.factory import JobFactory, JobWorkload

    for flag, value in (("--steps", args.steps), ("--gpu-mib", args.gpu_mib)):
        if value < 1:
            print(f"train: {flag} must be >= 1", file=sys.stderr)
            return 2
    factory = JobFactory(
        JobWorkload(layers=args.layers, lr=args.lr, seed=args.seed)
    )
    config = AngelConfig(
        gpu_memory_bytes=args.gpu_mib * MiB,
        cpu_memory_bytes=64 * MiB,
        ssd_bytes=32 * MiB if args.ssd else 0,
        page_bytes=64 * KiB,
        lock_free=args.lock_free,
        update_interval=4 if args.lock_free else 1,
        pipeline=args.pipeline,
    )
    engine = factory.engine(config)
    losses = []
    for step, batch in enumerate(factory.batches(args.steps)):
        loss = engine(batch)
        engine.backward(loss)
        engine.step()
        losses.append(loss.item())
        if step % max(1, args.steps // 5) == 0:
            print(f"step {step:4d}  loss {np.mean(losses[-10:]):.4f}")
    print(f"final loss {np.mean(losses[-10:]):.4f} "
          f"(from {np.mean(losses[:10]):.4f})")
    for tier, stats in engine.memory_report().items():
        print(f"  {tier}: peak {stats['peak_pages']} pages")
    if args.pipeline:
        pipeline = engine.pipeline_report()
        prefetch = pipeline.get("prefetch", {})
        print(f"pipeline: stalled {pipeline['stall_seconds']*1e3:.1f}ms, "
              f"{prefetch.get('prefetched_groups', 0)} groups prefetched "
              f"({prefetch.get('prefetched_bytes', 0) / MiB:.1f} MiB), "
              f"{pipeline.get('cached_layers_live', 0)} layers GPU-cached")
    engine.close()
    return 0


def _repo_root():
    """Nearest ancestor with a ``pyproject.toml`` or ``.git`` (else cwd)."""
    from pathlib import Path

    here = Path.cwd()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").exists() or (candidate / ".git").exists():
            return candidate
    return here


def _live_engine_plan():
    """Train the tiny pipelined workload and return (plan, gpu_budget).

    The returned plan is ``engine.executed_plan()`` — the exact object
    the live prefetch worker consumed, not a re-plan — so the verifier
    certifies what actually ran.
    """
    from repro.engine.angel import AngelConfig
    from repro.fleet.factory import JobFactory

    factory = JobFactory()
    config = AngelConfig(
        gpu_memory_bytes=4 * MiB, cpu_memory_bytes=64 * MiB,
        page_bytes=64 * KiB, pipeline=True,
    )
    with factory.engine(config) as engine:
        for batch in factory.batches(3):
            loss = engine(batch)
            engine.backward(loss)
            engine.step()
        return engine.executed_plan(), config.gpu_memory_bytes


def _check_schedule(args: argparse.Namespace, payload: dict) -> int:
    """Prong 1: statically verify the Algorithm-1 schedule."""
    from repro.analysis.verifier import verify_plan

    if args.live:
        plan, gpu_budget = _live_engine_plan()
        workload = "live functional engine (pipelined)"
    else:
        from repro.hardware.cluster import a100_cluster
        from repro.models import get_model
        from repro.scheduler.unified import UnifiedScheduler

        scheduler = UnifiedScheduler(a100_cluster(args.servers))
        plan = scheduler.plan(
            get_model(args.model), args.batch, seq_len=args.seq_len
        )
        gpu_budget = scheduler.gpu_budget
        workload = (f"{args.model}, {args.servers} server(s), "
                    f"micro-batch {args.batch}")
    result = verify_plan(plan, gpu_budget)
    payload["schedule"] = result.to_dict()
    if not args.json:
        print(f"schedule check  : {workload}")
        print(f"  {result.summary()}")
        _print_violations(result)
    return 0 if result.ok else 1


def _print_violations(result) -> None:
    for violation in result.violations:
        print(f"  [{violation.invariant}] trigger "
              f"{violation.trigger_id}: {violation.message}")
        for trigger, event in violation.provenance:
            print(f"      provenance: trigger {trigger}: {event}")


def _check_protocol(args: argparse.Namespace, payload: dict) -> int:
    """Prong 3: model-check the coordinator membership protocol."""
    from repro.analysis.protocol import ProtocolConfig, explore_protocol

    config = ProtocolConfig(world_size=args.workers)
    result = explore_protocol(depth=args.depth, config=config)
    payload["protocol"] = result.to_dict()
    if not args.json:
        stats = result.stats
        print(f"protocol check  : {result.model_name}")
        print(f"  {result.summary()} ({stats['states']} states, "
              f"{stats['transitions']} transitions explored, "
              f"{stats['terminal_complete']} complete terminal state(s))")
        _print_violations(result)
    return 0 if result.ok else 1


def _check_cluster(args: argparse.Namespace, payload: dict) -> int:
    """Prong 4: replay a real cluster workdir against the protocol."""
    from repro.analysis.protocol import verify_cluster_workdir

    result = verify_cluster_workdir(args.cluster)
    payload["cluster"] = result.to_dict()
    if not args.json:
        stats = result.stats
        print(f"cluster check   : {args.cluster}")
        print(f"  {result.summary()} ({stats['membership_events']} "
              f"membership event(s), {stats['rank_streams']} rank "
              f"stream(s), {stats['collectives_observed']} collective(s))")
        _print_violations(result)
    return 0 if result.ok else 1


def _check_self(args: argparse.Namespace, payload: dict) -> int:
    """Prong 2: concurrency-lint the repo against the baseline."""
    from pathlib import Path

    import repro
    from repro.analysis.baseline import (
        DEFAULT_BASELINE_NAME, compare, load_baseline, save_baseline,
    )
    from repro.analysis.lint import lint_tree

    root = Path(repro.__file__).parent
    baseline_path = (
        Path(args.baseline) if args.baseline
        else _repo_root() / DEFAULT_BASELINE_NAME
    )
    findings = lint_tree(root)
    if args.update_baseline:
        save_baseline(baseline_path, findings, load_baseline(baseline_path))
        if not args.json:
            print(f"self check      : baseline updated with "
                  f"{len(findings)} finding(s) -> {baseline_path}")
        payload["self"] = {
            "updated": True,
            "findings": [f.to_dict() for f in findings],
        }
        return 0
    verdict = compare(findings, load_baseline(baseline_path))
    payload["self"] = {
        "new": [f.to_dict() for f in verdict["new"]],
        "accepted": [f.fingerprint for f in verdict["accepted"]],
        "resolved": verdict["resolved"],
    }
    if not args.json:
        print(f"self check      : {len(findings)} finding(s), "
              f"{len(verdict['accepted'])} accepted by baseline, "
              f"{len(verdict['new'])} new")
        for finding in verdict["new"]:
            print(f"  [{finding.rule}] {finding.path}: {finding.subject}")
            print(f"      {finding.message}")
        for fingerprint in verdict["resolved"]:
            print(f"  resolved (prune from baseline): {fingerprint}")
    return 0 if not verdict["new"] else 1


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    # No explicit prong selected: run every workdir-free prong (the CI
    # gate's default). --cluster needs a finished run, so it only ever
    # runs when asked for.
    explicit = (
        args.self_lint or args.schedule or args.protocol
        or bool(args.cluster)
    )
    run_self = args.self_lint or not explicit
    run_schedule = args.schedule or not explicit
    run_protocol = args.protocol or not explicit
    payload: dict = {}
    status = 0
    if run_self:
        status = max(status, _check_self(args, payload))
    if run_schedule:
        status = max(status, _check_schedule(args, payload))
    if run_protocol:
        status = max(status, _check_protocol(args, payload))
    if args.cluster:
        status = max(status, _check_cluster(args, payload))
    if args.json:
        print(json.dumps(payload, indent=2))
    elif status == 0:
        print("check           : OK")
    else:
        print("check           : FAILED", file=sys.stderr)
    return status


def _cmd_report_build(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.observe.report import load_payload, write_report

    payload_path = Path(args.payload)
    payloads = []
    for path in (payload_path, args.trace):
        if path is None:
            payloads.append(None)
            continue
        if not Path(path).exists():
            print(f"report: no such file {path}", file=sys.stderr)
            return 2
        try:
            payload = load_payload(path)
        except ValueError as exc:
            print(f"report: {path} is not JSON ({exc})", file=sys.stderr)
            return 2
        if not isinstance(payload, dict):
            print(f"report: {path} holds a JSON {type(payload).__name__}, "
                  f"not an object", file=sys.stderr)
            return 2
        payloads.append(payload)
    payload, trace = payloads
    out = Path(args.out) if args.out else payload_path.parent / "run_report.md"
    try:
        written = write_report(payload, out, trace=trace, html=args.html)
    except OSError as exc:
        print(f"report: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Run an elastic process-cluster scenario and gate on the outcome.

    Runs the fault-free sequential reference, then the real
    multi-process run, and returns non-zero unless the run completed
    every step, its losses track the reference within ``--tolerance``,
    every child exited on its own and no shared-memory segment of the
    run is left behind.
    """
    import json
    import tempfile

    from repro.cluster import ClusterConfig, run_cluster, run_cluster_reference
    from repro.memory.arena import segment_names, session_token
    from repro.telemetry import Telemetry

    config = ClusterConfig(
        world_size=args.workers,
        steps=args.steps,
        checkpoint_every=args.ckpt_every,
        seed=args.seed,
        layers=args.layers,
        kill_rank=args.kill_rank,
        kill_at_step=args.at_step if args.at_step is not None
        else args.steps // 2,
        step_delay=args.step_delay,
        rendezvous_grace=args.grace,
        run_timeout=args.timeout,
    )
    tolerance = args.tolerance
    report_path = args.report
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-cluster-")
    reference = run_cluster_reference(config)
    telemetry = Telemetry()
    report = run_cluster(config, workdir, telemetry=telemetry)

    print(f"workers         : {config.world_size} process(es), "
          f"{config.steps} steps")
    print(f"complete        : {report.complete}")
    print(f"generations     : {report.generations} "
          f"(evictions {report.evictions}, respawns {report.respawns})")
    print(f"final world     : {report.final_world}")
    print(f"steps completed : {report.steps_completed}/{config.steps}")
    print("membership log  :")
    for event in report.events:
        detail = {k: v for k, v in event.items()
                  if k not in ("type", "time", "generation")}
        print(f"  gen {event.get('generation', '?')}: "
              f"{event['type']} {detail}")
    if report.alerts:
        print("watchdog alerts :")
        for alert in report.alerts:
            print(f"  [{alert.severity.name}] {alert.rule} "
                  f"@ step {alert.step}: {alert.message}")

    failures = []
    if not report.complete:
        failures.append("run did not complete")
    if report.steps_completed < config.steps:
        failures.append(
            f"only {report.steps_completed}/{config.steps} steps finished"
        )
    delta = None
    if report.losses and len(report.losses) == len(reference):
        delta = max(abs(a - b) for a, b in zip(reference, report.losses))
        print(f"final loss      : {report.losses[-1]:.4f} "
              f"(fault-free {reference[-1]:.4f}, max |delta| {delta:.2e})")
        if delta > tolerance:
            failures.append(
                f"diverged from reference: max |delta| {delta:.2e} "
                f"> tolerance {tolerance:.2e}"
            )
    elif not failures:
        failures.append("no losses reported")
    if report.unclean_exits:
        failures.append(
            f"killed after shutdown: {', '.join(report.unclean_exits)}"
        )
    leaked = segment_names(session_token(workdir))
    if leaked:
        failures.append(f"leaked shared memory: {', '.join(leaked)}")

    if report_path:
        payload = report.to_dict()
        payload["leaked_segments"] = leaked
        payload["reference"] = reference
        payload["tolerance"] = tolerance
        payload["max_delta"] = delta
        payload["failures"] = failures
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"report          : {report_path}")

    if failures:
        for failure in failures:
            print(f"cluster: FAIL: {failure}", file=sys.stderr)
        return 1
    print("verdict         : recovered, losses match reference")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.resilience import ChaosConfig, run_chaos, run_reference
    from repro.telemetry import Telemetry

    config = ChaosConfig(
        steps=args.steps,
        checkpoint_every=args.ckpt_every,
        seed=args.seed,
        layers=args.layers,
        transient_read_rate=args.transient_rate,
        transient_write_rate=args.transient_rate,
        max_transients=args.max_transients,
        torn_write_rate=args.torn_rate,
        max_torn_writes=args.max_torn,
        die_after_ops=args.tier_death_after,
        rank_failure_at_step=args.rank_failure_at,
    )
    reference = run_reference(
        ChaosConfig(steps=args.steps, checkpoint_every=args.ckpt_every,
                    seed=args.seed, layers=args.layers)
    )
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    telemetry = Telemetry()
    report = run_chaos(config, workdir, telemetry=telemetry)
    print(f"steps completed : {report.steps_completed} "
          f"({report.step_attempts} attempts)")
    print(f"tier deaths     : {report.counters.tier_deaths}")
    print(f"recoveries at   : {report.recovery_steps or '-'}")
    print("injected faults :")
    for record in report.fault_log:
        detail = f" ({record.detail})" if record.detail else ""
        print(f"  op {record.op_index:6d}  {record.kind.value:<16} "
              f"{record.tier}{detail}")
    if not report.fault_log:
        print("  (none)")
    # Fault counters and retry latencies share one registry; dump the
    # unified view (faults.*, retry.* and anything else that moved).
    dump = telemetry.dump()["metrics"]
    print("unified metrics :")
    for name, value in sorted(dump["counters"].items()):
        if value:
            print(f"  {name:<24} {value}")
    for name, summary in sorted(dump["histograms"].items()):
        print(f"  {name:<24} n={summary['count']} "
              f"mean={summary['mean']:.2e}s p95={summary['p95']:.2e}s")
    if report.alerts:
        print("watchdog alerts :")
        for alert in report.alerts:
            print(f"  [{alert.severity.name}] {alert.rule} "
                  f"@ step {alert.step}: {alert.message}")
    delta = max(abs(a - b) for a, b in zip(reference, report.losses))
    print(f"final loss      : {report.final_loss:.4f} "
          f"(fault-free {reference[-1]:.4f}, max |delta| {delta:.2e})")
    failures = []
    if report.steps_completed < args.steps:
        failures.append(
            f"unhealed faults: only {report.steps_completed}/{args.steps} "
            "steps completed"
        )
    if delta > args.tolerance:
        failures.append(
            f"diverged from reference: max |delta| {delta:.2e} "
            f"> tolerance {args.tolerance:.2e}"
        )
    if failures:
        for failure in failures:
            print(f"chaos: FAIL: {failure}", file=sys.stderr)
        return 1
    print("verdict         : healed, losses match reference")
    return 0


def _cmd_trace_collect(args: argparse.Namespace) -> int:
    import os

    from repro.telemetry.collect import TraceCollector

    if not os.path.isdir(args.workdir):
        print(f"trace: no such workdir {args.workdir}", file=sys.stderr)
        return 2
    collected = TraceCollector(args.workdir).collect()
    out = args.out or os.path.join(args.workdir, "cluster_trace.json")
    rollup_path = args.rollup or os.path.join(
        args.workdir, "telemetry_rollup.json"
    )
    collected.save(out, rollup_path)
    print(f"streams         : {len(collected.streams)} "
          f"({collected.skipped_lines} truncated line(s) skipped)")
    print(f"rank lanes      : "
          f"{', '.join(collected.rank_lanes) or '(none)'}")
    for source, info in sorted(
        collected.rollup.get("per_source", {}).items()
    ):
        print(f"  {source:<14} role={info['role']:<10} "
              f"last_step={info['last_step']} align={info['alignment']}")
    traffic = collected.rollup.get("tenant_traffic") or {}
    if traffic:
        print("tenant traffic  :")
        for tenant, bucket in traffic.items():
            print(f"  {tenant:<8} "
                  f"{bucket['pages_moved_bytes'] / MiB:8.2f} MiB moved "
                  f"over {bucket['jobs']} job stream(s)")
    print(f"wrote           : {out}")
    print(f"wrote           : {rollup_path}")
    if len(collected.rank_lanes) < args.min_rank_lanes:
        print(f"trace: FAIL: only {len(collected.rank_lanes)} rank "
              f"lane(s), need >= {args.min_rank_lanes}", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import os
    import time

    from repro.telemetry.collect import render_top, tail_state

    if args.refresh <= 0:
        print(f"top: --refresh must be > 0, got {args.refresh}", file=sys.stderr)
        return 2
    if not os.path.isdir(args.workdir):
        print(f"top: no such workdir {args.workdir}", file=sys.stderr)
        return 2
    try:
        while True:
            state = tail_state(args.workdir)
            if not args.once:
                # Clear screen + home, like top(1); skipped in --once
                # mode so CI logs stay readable.
                print("\x1b[2J\x1b[H", end="")
            print(render_top(state))
            if args.once:
                return 0
            time.sleep(args.refresh)
    except KeyboardInterrupt:
        return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.experiments as experiments

    name = args.name.replace("-", "_")
    if name not in experiments.__all__:
        print(f"unknown experiment {args.name!r}; choose from: "
              f"{', '.join(experiments.__all__)}", file=sys.stderr)
        return 2
    module = getattr(experiments, name)
    print(module.format_report(module.run()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Angel-PTM reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the Table 4 model zoo").set_defaults(
        func=_cmd_models
    )

    plan = sub.add_parser("plan", help="max model scale / batch for a cluster")
    plan.add_argument("--model", default="gpt3-28b")
    plan.add_argument("--servers", type=int, default=1)
    plan.add_argument("--cluster", help="JSON cluster description (see hardware.config_io)")
    plan.add_argument("--seq-len", type=int, default=2048)
    plan.add_argument("--ssd", action="store_true")
    plan.set_defaults(func=_cmd_plan)

    simulate = sub.add_parser("simulate", help="simulate one training iteration")
    simulate.add_argument("--model", default="gpt3-13b")
    simulate.add_argument("--servers", type=int, default=1)
    simulate.add_argument("--cluster", help="JSON cluster description (see hardware.config_io)")
    simulate.add_argument("--batch", type=int, default=4)
    simulate.add_argument("--seq-len", type=int, default=2048)
    simulate.add_argument("--ssd", action="store_true")
    simulate.add_argument("--lock-free", action="store_true")
    simulate.set_defaults(func=_cmd_simulate)

    train = sub.add_parser("train", help="functional training demo (Figure 6)")
    train.add_argument("--steps", type=int, default=100)
    train.add_argument("--layers", type=int, default=2)
    train.add_argument("--lr", type=float, default=2e-3)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--gpu-mib", type=int, default=4)
    train.add_argument("--ssd", action="store_true")
    train.add_argument("--lock-free", action="store_true")
    train.add_argument("--pipeline", action="store_true",
                       help="schedule-driven async prefetch + writeback "
                            "after the recording iteration")
    train.set_defaults(func=_cmd_train)

    chaos = sub.add_parser(
        "chaos", help="chaos-test the functional engine (fault injection)"
    )
    chaos.add_argument("--steps", type=int, default=10)
    chaos.add_argument("--layers", type=int, default=2)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--ckpt-every", type=int, default=3)
    chaos.add_argument("--transient-rate", type=float, default=0.02,
                       help="per-request transient fault probability on the "
                            "SSD tier (a step issues ~40)")
    chaos.add_argument("--max-transients", type=int, default=8)
    chaos.add_argument("--torn-rate", type=float, default=0.008)
    chaos.add_argument("--max-torn", type=int, default=2)
    chaos.add_argument("--tier-death-after", type=int, default=None,
                       help="kill the SSD tier permanently after N I/O requests")
    chaos.add_argument("--rank-failure-at", type=int, default=None,
                       help="crash a rank at this step (restore from checkpoint)")
    chaos.add_argument("--workdir", default=None,
                       help="checkpoint directory (default: fresh temp dir)")
    chaos.add_argument("--tolerance", type=float, default=0.05,
                       help="max |loss - reference| over every step "
                            "before exit 1")
    chaos.set_defaults(func=_cmd_chaos)

    cluster = sub.add_parser(
        "cluster",
        help="elastic multi-process training with rendezvous + heartbeats",
    )
    cluster.add_argument("--workers", type=int, default=3)
    cluster.add_argument("--steps", type=int, default=12)
    cluster.add_argument("--ckpt-every", type=int, default=3)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--layers", type=int, default=2)
    cluster.add_argument("--kill-rank", type=int, default=None,
                         help="SIGKILL this worker slot mid-step")
    cluster.add_argument("--at-step", type=int, default=None,
                         help="step at which --kill-rank fires "
                              "(default: steps // 2)")
    cluster.add_argument("--step-delay", type=float, default=0.0,
                         help="artificial per-step duration (seconds)")
    cluster.add_argument("--grace", type=float, default=1.0,
                         help="rendezvous straggler grace window (seconds)")
    cluster.add_argument("--timeout", type=float, default=120.0,
                         help="hard wall-clock limit for the whole run")
    cluster.add_argument("--tolerance", type=float, default=0.05,
                         help="max loss delta vs fault-free reference")
    cluster.add_argument("--workdir", default=None,
                         help="checkpoint + event-log directory")
    cluster.add_argument("--report", default=None,
                         help="write a JSON run report to this path")
    cluster.set_defaults(func=_cmd_cluster)

    check = sub.add_parser(
        "check",
        help="static analysis: schedule verifier, concurrency lint, "
             "protocol model checker, cluster replay (repro.analysis)",
    )
    check.add_argument("--self", dest="self_lint", action="store_true",
                       help="concurrency-lint the repro sources against the "
                            "checked-in baseline")
    check.add_argument("--schedule", action="store_true",
                       help="statically verify the Algorithm-1 schedule for "
                            "the selected workload")
    check.add_argument("--live", action="store_true",
                       help="with --schedule: verify the plan the live "
                            "pipelined engine actually executed, instead of "
                            "a simulated workload's")
    check.add_argument("--model", default="gpt3-13b",
                       help="model-zoo name for --schedule (default: "
                            "simulate's)")
    check.add_argument("--servers", type=int, default=1)
    check.add_argument("--batch", type=int, default=4)
    check.add_argument("--seq-len", type=int, default=2048)
    check.add_argument("--protocol", action="store_true",
                       help="model-check the coordinator membership "
                            "protocol: exhaustive bounded-depth exploration "
                            "against the invariant catalog")
    check.add_argument("--depth", type=int, default=6,
                       help="exploration depth for --protocol (actions per "
                            "interleaving, default 6)")
    check.add_argument("--workers", type=int, default=2,
                       help="modelled world size for --protocol (default 2)")
    check.add_argument("--cluster", default=None, metavar="WORKDIR",
                       help="replay a finished cluster run's membership log "
                            "and per-rank telemetry against the fencing and "
                            "collective-agreement invariants")
    check.add_argument("--baseline", default=None,
                       help="lint baseline path (default: "
                            "concurrency_baseline.json at the repo root)")
    check.add_argument("--update-baseline", action="store_true",
                       help="accept the current lint findings as the baseline")
    check.add_argument("--json", action="store_true",
                       help="print the machine-readable result instead")
    check.set_defaults(func=_cmd_check)

    report = sub.add_parser(
        "report", help="render a run report (repro.observe)"
    )
    report_sub = report.add_subparsers(dest="report_command", required=True)
    build = report_sub.add_parser(
        "build", help="render a bench result or a cluster report, with an "
                      "optional trace, into one run report"
    )
    build.add_argument("payload",
                       help="a `python3 -m bench run` result.json or a "
                            "`repro cluster --report` JSON")
    build.add_argument("--trace", default=None,
                       help="optional Chrome trace to summarize alongside "
                            "(a bench traced pass's or cluster_trace.json)")
    build.add_argument("--out", default=None,
                       help="output markdown path (default: run_report.md "
                            "next to the payload)")
    build.add_argument("--html", action="store_true",
                       help="also write a self-contained .html next to the .md")
    build.set_defaults(func=_cmd_report_build)

    top = sub.add_parser(
        "top",
        help="live text dashboard tailing a run's telemetry streams",
    )
    top.add_argument("workdir",
                     help="run workdir containing a telemetry/ directory")
    top.add_argument("--refresh", type=float, default=1.0,
                     help="seconds between redraws (default 1.0)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (CI / tests)")
    top.set_defaults(func=_cmd_top)

    trace = sub.add_parser(
        "trace",
        help="distributed trace collection (repro.telemetry.collect)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_collect = trace_sub.add_parser(
        "collect",
        help="merge per-process event streams into one Chrome trace "
             "+ fleet-wide metrics rollup",
    )
    trace_collect.add_argument(
        "workdir", help="run workdir containing telemetry/ event files"
    )
    trace_collect.add_argument(
        "--out", default=None,
        help="merged Chrome trace path "
             "(default: <workdir>/cluster_trace.json)",
    )
    trace_collect.add_argument(
        "--rollup", default=None,
        help="merged metrics rollup path "
             "(default: <workdir>/telemetry_rollup.json)",
    )
    trace_collect.add_argument(
        "--min-rank-lanes", type=int, default=0,
        help="fail unless the merged trace has at least this many rank "
             "lanes (CI smoke gate)",
    )
    trace_collect.set_defaults(func=_cmd_trace_collect)

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", help="e.g. table5, figure8, ablation_page_size")
    experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ConfigurationError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        # Bad input from the command line, whichever layer validated it:
        # one line and exit 2, like argparse's own usage errors.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
