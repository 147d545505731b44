"""One pass of one workload; the driver's entry point.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1``. Exit code 0 means the pass ran and its correctness
oracles held; anything else prints no result line.
"""

import time

STARTED = time.perf_counter()  # before any other import: set-up includes them

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for the Chrome trace and per-layer "
                             "table of a traced pass")
    parser.add_argument("--part", action="store_true",
                        help="internal: this process is one of the fresh "
                             "interpreters an untraced pass is split over")
    return parser.parse_args(argv)


def _run_parts(args, count: int) -> list[dict]:
    """The result lines of ``count`` fresh interpreters, one at a time.

    Part of the run-to-run noise on a shared machine is a per-process
    constant (memory layout, the core the process landed on), which no
    statistic inside one process can remove. An untraced pass therefore
    splits its budget over several interpreters — each a full cold
    set-up, timed loop and oracle — and ``_combine`` merges them.
    """
    results = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             repr(args.seconds / count), "--trace", "0", "--part"],
            capture_output=True, text=True, timeout=170,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"part exited {done.returncode} with no result")
        results.append(json.loads(lines[-1]))
    return results


def _combine(parts: list[dict]) -> dict:
    """One result from the parts: quietest part, median set-up, summed counts."""
    def values(name):
        return [part["metrics"][name]["value"] for part in parts]

    metrics = dict(parts[0]["metrics"])
    for name, pick in (("ops_per_s", max), ("op_p50_ms", min),
                       ("setup_s", statistics.median), ("peak_rss_mib", max)):
        metrics[name] = {"value": pick(values(name)), "unit": metrics[name]["unit"]}
    return {
        "correct": all(part["correct"] for part in parts),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from bench import hygiene, spec
    from bench.common import Context, peak_rss_mib

    declared = spec.load()
    if args.workload not in spec.workload_names(declared):
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])

    from bench.workloads import WORKLOADS

    module = WORKLOADS[args.workload]
    if not args.trace and not args.part and module.PROCESSES > 1:
        result = _combine(_run_parts(args, module.PROCESSES))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    with hygiene.Sandbox(WORK_ROOT) as sandbox:
        tracer = None
        if args.trace:
            from bench.trace import Tracer

            tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
        ctx = Context(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            started=STARTED, workdir=sandbox.workdir, tracer=tracer,
        )
        outcome = module.measure(ctx, module.setup(ctx))
        if not args.trace:
            outcome.metrics["setup_s"] = statistics.median(outcome.setup_samples)
    # Left the sandbox: children are reaped and /dev/shm is compared.
    for line in sandbox.problems:
        outcome.check(False, line)
    if args.trace:
        outcome.metrics.setdefault("hygiene.shm_segments_leaked",
                                   len(sandbox.leaked_segments))
        if args.out:
            _write_artifacts(args, tracer, outcome)
    else:
        outcome.metrics["peak_rss_mib"] = peak_rss_mib()
        missing = set(spec.metric_table(declared, False)) - set(outcome.metrics)
        if missing and not outcome.problems:
            outcome.check(False, f"end-to-end metrics not measured: {sorted(missing)}")

    correct = not outcome.problems
    for line in outcome.problems:
        print(f"bench: FAILED {line}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        # A failed oracle fails the whole pass, not one operation.
        "failed": outcome.failed if correct else max(1, outcome.attempted),
        "metrics": spec.render_metrics(declared, bool(args.trace), outcome.metrics),
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _write_artifacts(args, tracer, outcome) -> None:
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}")
    with open(stem + ".trace.json", "w", encoding="utf-8") as handle:
        json.dump(tracer.chrome_trace(), handle)
    with open(stem + ".layers.json", "w", encoding="utf-8") as handle:
        json.dump({"metrics": outcome.metrics, "exact": outcome.exact,
                   "spans": tracer.totals()}, handle, indent=2, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
