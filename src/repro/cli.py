"""Command-line interface: plan, simulate, train and reproduce.

Entry points a downstream adopter needs without writing Python::

    python -m repro.cli models                     # the Table 4 zoo
    python -m repro.cli plan --model gpt3-28b --servers 1
    python -m repro.cli simulate --model gpt3-13b --servers 1 --batch 4
    python -m repro.cli train --steps 100 --lock-free --ssd
    python -m repro.cli check --schedule           # static verification
    python -m repro.cli experiment table5          # any table/figure

Every command parses, makes one library call and renders its result.
Every flag changes the run: one that cannot apply to the run asked for
exits 2 with one line on stderr, before anything runs
(``tests/test_cli_flags.py`` keeps it so).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from repro.errors import ConfigurationError
from repro.units import MiB


def _refuse(args: argparse.Namespace, flags, reason: str) -> None:
    """Exit 2 (via ``main``) if any of ``flags`` was given: it cannot
    apply, so the run would silently ignore it."""
    used = sorted(args.given & set(flags))
    if used:
        raise ConfigurationError(f"{', '.join(used)} {reason}")


def _print_alerts(alerts) -> None:
    if alerts:
        print("watchdog alerts :")
    for alert in alerts:
        print(f"  [{alert.severity.name}] {alert.rule} "
              f"@ step {alert.step}: {alert.message}")


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
    """The cluster from --cluster FILE if given, else --servers A100s."""
    if args.cluster is None:
        from repro.hardware.cluster import a100_cluster

        return a100_cluster(args.servers)
    _refuse(args, ["--servers"], "does not apply with --cluster")
    from repro.hardware.config_io import load_cluster

    return load_cluster(args.cluster)


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.engine.planner import CapacityPlanner
    from repro.models import get_model

    cluster = _resolve_cluster(args)
    planner = CapacityPlanner(cluster)
    config = get_model(args.model)
    print(f"cluster: {cluster.num_servers} server(s), {cluster.num_gpus} GPUs")
    for system in ("deepspeed", "angel-ptm"):
        layers = planner.max_layers(config, system, seq_len=args.seq_len,
                                    use_ssd=args.ssd)
        scaled = config.with_layers(layers)
        params = scaled.build(1, args.seq_len).param_count
        batch = planner.max_micro_batch(scaled, system, seq_len=args.seq_len,
                                        use_ssd=args.ssd)
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
    from repro.fleet.factory import JobFactory, JobWorkload, engine_config

    for flag, value in (("--steps", args.steps), ("--gpu-mib", args.gpu_mib)):
        if value < 1:
            raise ConfigurationError(f"{flag} must be >= 1")
    factory = JobFactory(
        JobWorkload(layers=args.layers, lr=args.lr, seed=args.seed)
    )
    config = engine_config(args.gpu_mib * MiB, ssd=args.ssd,
                           lock_free=args.lock_free, pipeline=args.pipeline)
    with factory.engine(config) as engine:
        losses = factory.train(engine, args.steps)
        memory = engine.memory_report()
        pipeline = engine.pipeline_report()
    for step in range(0, args.steps, max(1, args.steps // 5)):
        print(f"step {step:4d}  loss "
              f"{np.mean(losses[max(0, step - 9):step + 1]):.4f}")
    print(f"final loss {np.mean(losses[-10:]):.4f} "
          f"(from {np.mean(losses[:10]):.4f})")
    for tier, stats in memory.items():
        print(f"  {tier}: peak {stats['peak_pages']} pages")
    if args.pipeline:
        prefetch = pipeline.get("prefetch", {})
        print(f"pipeline: stalled {pipeline['stall_seconds']*1e3:.1f}ms, "
              f"{prefetch.get('prefetched_groups', 0)} groups prefetched "
              f"({prefetch.get('prefetched_bytes', 0) / MiB:.1f} MiB), "
              f"{pipeline.get('cached_layers_live', 0)} layers GPU-cached")
    return 0


def _repo_root():
    """Nearest ancestor with a ``pyproject.toml`` or ``.git`` (else cwd)."""
    from pathlib import Path

    here = Path.cwd()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").exists() or (candidate / ".git").exists():
            return candidate
    return here


# Each prong returns ``(ok, payload, lines)``: its ``--json`` payload,
# and the text under its header (the first line beside it).
def _verified(result, subject: str, detail: str = ""):
    """A verifier prong's result, its violations listed last."""
    lines = [subject, result.summary() + detail]
    for violation in result.violations:
        lines.append(f"[{violation.invariant}] trigger "
                     f"{violation.trigger_id}: {violation.message}")
        lines += [f"    provenance: trigger {trigger}: {event}"
                  for trigger, event in violation.provenance]
    return result.ok, result.to_dict(), lines


def _check_self(args: argparse.Namespace):
    """Concurrency-lint the repo against the baseline."""
    from pathlib import Path

    import repro
    from repro.analysis.baseline import (
        DEFAULT_BASELINE_NAME, compare, load_baseline, save_baseline,
    )
    from repro.analysis.lint import lint_tree

    baseline_path = (
        Path(args.baseline) if args.baseline
        else _repo_root() / DEFAULT_BASELINE_NAME
    )
    findings = lint_tree(Path(repro.__file__).parent)
    if args.update_baseline:
        save_baseline(baseline_path, findings, load_baseline(baseline_path))
        payload = {"updated": True, "findings": [f.to_dict() for f in findings]}
        return True, payload, [f"baseline updated with {len(findings)} "
                               f"finding(s) -> {baseline_path}"]
    verdict = compare(findings, load_baseline(baseline_path))
    payload = {
        "new": [f.to_dict() for f in verdict["new"]],
        "accepted": [f.fingerprint for f in verdict["accepted"]],
        "resolved": verdict["resolved"],
    }
    lines = [f"{len(findings)} finding(s), {len(verdict['accepted'])} "
             f"accepted by baseline, {len(verdict['new'])} new"]
    for finding in verdict["new"]:
        lines += [f"[{finding.rule}] {finding.path}: {finding.subject}",
                  f"    {finding.message}"]
    lines += [f"resolved (prune from baseline): {fingerprint}"
              for fingerprint in verdict["resolved"]]
    return not verdict["new"], payload, lines


def _check_schedule(args: argparse.Namespace):
    """Statically verify the Algorithm-1 schedule."""
    from repro.analysis.verifier import verify_plan

    if args.live:
        from repro.engine.liveplan import run_live_plan

        plan, gpu_budget = run_live_plan()
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
    return _verified(verify_plan(plan, gpu_budget), workload)


def _check_protocol(args: argparse.Namespace):
    """Model-check the coordinator membership protocol."""
    from repro.analysis.protocol import ProtocolConfig, explore_protocol

    result = explore_protocol(
        depth=args.depth, config=ProtocolConfig(world_size=args.workers)
    )
    stats = result.stats
    return _verified(result, result.model_name,
                     f" ({stats['states']} states, {stats['transitions']} "
                     f"transitions explored, {stats['terminal_complete']} "
                     f"complete terminal state(s))")


def _check_cluster(args: argparse.Namespace):
    """Replay a real cluster workdir against the protocol."""
    from repro.analysis.protocol import verify_cluster_workdir

    result = verify_cluster_workdir(args.cluster)
    stats = result.stats
    return _verified(result, args.cluster,
                     f" ({stats['membership_events']} membership event(s), "
                     f"{stats['rank_streams']} rank stream(s), "
                     f"{stats['collectives_observed']} collective(s))")


#: ``check``'s prongs in run order: (flag, runner, header, the flags only
#: that prong reads). No prong flag runs every prong but ``--cluster``,
#: which needs a finished run.
_PRONGS = (
    ("--self", _check_self, "self check", ("--baseline", "--update-baseline")),
    ("--schedule", _check_schedule, "schedule check",
     ("--live", "--model", "--servers", "--batch", "--seq-len")),
    ("--protocol", _check_protocol, "protocol check", ("--depth", "--workers")),
    ("--cluster", _check_cluster, "cluster check", ()),
)


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    prongs = ([p for p in _PRONGS if p[0] in args.given]
              or [p for p in _PRONGS if p[0] != "--cluster"])
    for prong in _PRONGS:
        if prong not in prongs:
            _refuse(args, prong[3], f"does not apply: {prong[0]} does not run")
    if args.live:
        _refuse(args, ["--model", "--servers", "--batch", "--seq-len"],
                "does not apply with --live")
    payload: dict = {}
    ok = True
    for flag, runner, header, _ in prongs:
        passed, payload[flag[2:]], lines = runner(args)
        ok = ok and passed
        if not args.json:
            print(f"{header:<16}: {lines[0]}")
            for line in lines[1:]:
                print(f"  {line}")
    if args.json:
        print(json.dumps(payload, indent=2))
    elif ok:
        print("check           : OK")
    else:
        print("check           : FAILED", file=sys.stderr)
    return 0 if ok else 1


def _cmd_report_build(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.observe.report import load_payload, write_report

    def load(path):
        if not Path(path).exists():
            raise ConfigurationError(f"no such file {path}")
        try:
            payload = load_payload(path)
        except ValueError as exc:
            raise ConfigurationError(f"{path} is not JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise ConfigurationError(f"{path} holds a JSON "
                                     f"{type(payload).__name__}, not an object")
        return payload

    payload = load(args.payload)
    trace = None if args.trace is None else load(args.trace)
    out = Path(args.out or Path(args.payload).parent / "run_report.md")
    try:
        written = write_report(payload, out, trace=trace, html=args.html)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write {out}: {exc.strerror or exc}") from None
    for path in written:
        print(f"wrote {path}")
    return 0


def _gate(command: str, failures: list[str], verdict: str) -> int:
    """Exit 1 with one stderr line per failure, else print the verdict."""
    for failure in failures:
        print(f"{command}: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"verdict         : {verdict}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Run the fault-free reference, then the real multi-process run,
    and gate on :func:`repro.resilience.chaos.verdict`."""
    import json

    from repro.cluster.protocol import ClusterConfig
    from repro.cluster.supervisor import run_cluster
    from repro.cluster.worker import run_cluster_reference
    from repro.memory.arena import segment_names, session_token
    from repro.resilience.chaos import verdict
    from repro.telemetry import Telemetry

    config = ClusterConfig(
        world_size=args.workers,
        steps=args.steps,
        checkpoint_every=args.ckpt_every,
        seed=args.seed,
        layers=args.layers,
        kill_rank=args.kill_rank,
        kill_at_step=args.at_step,
        step_delay=args.step_delay,
        rendezvous_grace=args.grace,
        run_timeout=args.timeout,
    )
    reference = run_cluster_reference(config)
    report = run_cluster(config, args.workdir, telemetry=Telemetry())
    delta, failures = verdict(report.losses, reference)
    if not report.complete:
        failures.append("run did not complete")
    if report.unclean_exits:
        failures.append(
            f"killed after shutdown: {', '.join(report.unclean_exits)}")
    leaked = segment_names(session_token(report.workdir))
    if leaked:
        failures.append(f"leaked shared memory: {', '.join(leaked)}")
    if config.kill_rank is not None and not (
            report.evictions and report.respawns):
        failures.append(
            f"--kill-rank {config.kill_rank} never took effect "
            f"({report.evictions} evictions, {report.respawns} respawns)")

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
    _print_alerts(report.alerts)
    if delta is not None:
        print(f"final loss      : {report.losses[-1]:.4f} "
              f"(fault-free {reference[-1]:.4f}, max |delta| {delta:.2e})")
    if args.report:
        payload = report.to_dict()
        payload.update(leaked_segments=leaked, reference=reference,
                       max_delta=delta, failures=failures)
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"report          : {args.report}")
    return _gate("cluster", failures, "recovered, losses match reference")


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the fault-free reference, then the supervised faulty run, and
    gate on :func:`repro.resilience.chaos.verdict`."""
    from repro.resilience.chaos import (
        ChaosConfig, run_chaos, run_reference, verdict,
    )
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
    reference = run_reference(config)
    telemetry = Telemetry()
    report = run_chaos(config, args.workdir, telemetry=telemetry)
    delta, failures = verdict(report.losses, reference)
    if config.die_after_ops is not None and not report.counters["tier_deaths"]:
        failures.append(
            f"--tier-death-after {config.die_after_ops} never took effect "
            "(0 tier deaths)")

    print(f"steps completed : {report.steps_completed} "
          f"({report.step_attempts} attempts)")
    print(f"tier deaths     : {report.counters['tier_deaths']}")
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
    _print_alerts(report.alerts)
    if delta is not None:
        print(f"final loss      : {report.final_loss:.4f} "
              f"(fault-free {reference[-1]:.4f}, max |delta| {delta:.2e})")
    return _gate("chaos", failures, "healed, losses match reference")


def _cmd_trace_collect(args: argparse.Namespace) -> int:
    import os

    from repro.telemetry.collect import TraceCollector

    if not os.path.isdir(args.workdir):
        raise ConfigurationError(f"no such workdir {args.workdir}")
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
              f"last_step={info['last_step']}")
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

    if args.once:
        _refuse(args, ["--refresh"], "does not apply with --once")
    if args.refresh <= 0:
        raise ConfigurationError(f"--refresh must be > 0, got {args.refresh}")
    if not os.path.isdir(args.workdir):
        raise ConfigurationError(f"no such workdir {args.workdir}")
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
        raise ConfigurationError(f"unknown experiment {args.name!r}; choose "
                                 f"from: {', '.join(experiments.__all__)}")
    module = getattr(experiments, name)
    print(module.format_report(module.run()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Angel-PTM reproduction toolkit"
    )
    # No abbreviations: ``main`` reads which flags were given from argv.
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser,
                                       allow_abbrev=False),
    )

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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.given = {arg.split("=", 1)[0] for arg in argv if arg.startswith("--")}
    try:
        return args.func(args)
    except ConfigurationError as exc:
        # Bad input from the command line, whichever layer validated it:
        # one line and exit 2, like argparse's own usage errors.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
