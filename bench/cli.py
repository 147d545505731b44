"""``bench run``: every workload, repeated; ``bench compare``: two result files.

``run`` executes each pass in a fresh interpreter (``bench/run.py``), so
resident memory, threads and ``/dev/shm`` never cross between workloads,
and writes one result file: a header describing the machine, then per
workload the end-to-end metrics with every run's value, their median and
quartiles, and (with ``--traced``) the per-layer table and exact counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from bench import spec
from bench.common import quartiles

RUN_PY = os.path.join(spec.ROOT, "bench", "run.py")
DEFAULT_OUT = os.path.join(spec.ROOT, ".bench_out")
#: One pass may take this long before it is killed (the driver's limit).
PASS_TIMEOUT_S = 180


def header(args) -> dict:
    """Where and on what the numbers were taken."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a bare checkout, not a git repository
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "seed": args.seed,
        "vary_seed": args.vary_seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "started_unix": time.time(),
    }


def run_pass(workload: str, seed: int, seconds: float, traced: bool,
             out: str | None) -> dict:
    """One ``bench/run.py`` subprocess; returns its result object."""
    command = [sys.executable, RUN_PY, "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    if traced and out:
        command += ["--out", out]
    began = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    wall_s = time.perf_counter() - began
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{workload}: no result (exit {done.returncode})\n{done.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    result["wall_s"] = wall_s
    if done.returncode:
        sys.stderr.write(done.stderr)
    return result


def _summarise(values: list[float], unit: str) -> dict:
    q1, mid, q3 = quartiles(values)
    return {"unit": unit, "values": values, "n": len(values),
            "median": mid, "q1": q1, "q3": q3}


def cmd_run(args) -> int:
    declared = spec.load()
    names = args.workload or spec.workload_names(declared)
    unknown = sorted(set(names) - set(spec.workload_names(declared)))
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    document = {"header": header(args), "workloads": {}}
    failed = False
    for name in names:
        runs = []
        for repeat in range(args.repeats):
            seed = args.seed + repeat if args.vary_seed else args.seed
            result = run_pass(name, seed, args.seconds, False, None)
            runs.append(result)
            print(f"{name} run {repeat + 1}/{args.repeats} seed {seed} "
                  f"({result['wall_s']:.1f} s): "
                  + " ".join(f"{k}={v['value']:.4g} {v['unit']}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            #: Whole-pass wall time, set-up and oracles included: what the
            #: driver's time budget is spent on.
            "pass_wall_s": [r["wall_s"] for r in runs],
            "end_to_end": {
                metric: _summarise(
                    [r["metrics"][metric]["value"] for r in runs],
                    runs[0]["metrics"][metric]["unit"])
                for metric in runs[0]["metrics"]
            },
        }
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        if args.traced:
            traced = run_pass(name, args.seed, args.seconds, True, args.out)
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["per_layer"] = traced["metrics"]
            layers = os.path.join(args.out, f"{name}-seed{args.seed}.layers.json")
            with open(layers, encoding="utf-8") as handle:
                entry["exact"] = json.load(handle)["exact"]
            print(f"{name} traced: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in traced["metrics"].items()
                if v["value"]), flush=True)
        failed = failed or not entry["correct"]
        document["workloads"][name] = entry
    path = os.path.join(args.out, "result.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"wrote {path}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[str, float]:
    """(label, spread) for one (workload, metric) pair.

    ``spread`` is the wider of the two files' interquartile ranges as a
    share of its median: beyond the bound the pair cannot be told apart
    and is *unresolved*, never "unchanged".
    """
    # Positive when ``new`` is worse, as a share of the base median.
    change = (new["median"] - base["median"]) / base["median"]
    if better == "higher":
        change = -change
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (base, new)
    )
    if spread > bound or min(base["n"], new["n"]) < 2:  # one run has no spread
        return "unresolved", spread
    if change > bound:
        return "regressed", spread
    if -change > spread:
        return "improved", spread
    return "unchanged", spread


def cmd_compare(args) -> int:
    declared = spec.load()
    bounds = spec.metric_table(declared, traced=False)
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)["workloads"]
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)["workloads"]
    worst = 0
    print(f"{'workload':14s} {'metric':14s} {'base median':>14s} "
          f"{'new median':>14s} {'new/base':>9s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for name in base:
        if name not in new:
            print(f"{name:14s} missing from {args.new}")
            worst = 1
            continue
        for metric, declaration in bounds.items():
            a = base[name]["end_to_end"][metric]
            b = new[name]["end_to_end"][metric]
            label, spread = verdict(a, b, declaration["better"],
                                    declaration["bound"])
            print(f"{name:14s} {metric:14s} {a['median']:14.5g} "
                  f"{b['median']:14.5g} {b['median'] / a['median']:9.4f} "
                  f"{spread:7.3f} {declaration['bound']:6.2f}  {label}"
                  f" (base {a['median']:.5g} {a['unit']}, n={a['n']}/{b['n']})")
            if label in ("regressed", "unresolved"):
                worst = 1
        for count, value in base[name].get("exact", {}).items():
            other = new[name].get("exact", {}).get(count)
            same = other == value
            print(f"{name:14s} {count:44s} {value!r:>14} {other!r:>14}  "
                  f"{'equal' if same else 'DIFFERS'}")
            if not same:
                worst = 1
    return worst


def main(argv=None) -> int:
    declared = spec.load()
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, write a result file")
    run.add_argument("--workload", action="append",
                     help="a workload of BENCHMARK.json (repeatable; default all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--vary-seed", action="store_true",
                     help="repeat i uses seed+i (spread across inputs)")
    run.add_argument("--seconds", type=float, default=declared["run_seconds"])
    run.add_argument("--repeats", type=int, default=5)
    run.add_argument("--traced", action="store_true",
                     help="also make the traced pass: per-layer table, trace")
    run.add_argument("--quick", action="store_true",
                     help="one repeat of about a tenth of the work")
    run.add_argument("--out", default=DEFAULT_OUT)
    run.set_defaults(handler=cmd_run)
    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(handler=cmd_compare)
    args = parser.parse_args(argv)
    if getattr(args, "quick", False):
        args.seconds, args.repeats = declared["run_seconds"] / 10, 1
    return args.handler(args)
