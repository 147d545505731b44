"""Self-test of the benchmark (``python3 -m pytest bench/test_bench.py``).

Outside tier-1's ``testpaths``. Every pass runs in quick mode (a tenth of
``run_seconds``); nothing here asserts a *time*, only names, units, exact
counts and bookkeeping. About three minutes on two cores: sixteen fresh
interpreters, each paying its cold set-up and oracle, is the floor.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import cli, spec  # noqa: E402
from bench.trace import Tracer, is_wrapped  # noqa: E402

SPEC = spec.load()
QUICK_SECONDS = SPEC["run_seconds"] / 10
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Workloads whose traced pass is made twice: their exact counts must repeat.
REPEATED = ("gpu_tight", "cluster_zero", "fleet_stream", "page_ladder")


def _pass(workload, traced, out):
    return workload, traced, cli.run_pass(workload, 3, QUICK_SECONDS, traced, out)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """{(workload, traced, repeat): result} of every quick pass."""
    outs = [str(tmp_path_factory.mktemp(f"out{i}")) for i in range(2)]
    jobs = []
    for name in spec.workload_names(SPEC):
        jobs.append((name, False, None, 0))
        jobs.append((name, True, outs[0], 0))
        if name in REPEATED:
            jobs.append((name, True, outs[1], 1))
    results = [_pass(*job[:3]) for job in jobs]
    table = {(name, traced, job[3]): result
             for job, (name, traced, result) in zip(jobs, results)}
    table["outs"] = outs
    return table


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += spec.workload_names(SPEC)
    assert len(names) == len(set(names))
    assert all(NAME_PATTERN.match(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_every_pass_is_correct_and_prints_exactly_the_declared_metrics(passes):
    for key, result in passes.items():
        if key == "outs":
            continue
        name, traced, _ = key
        assert set(result) == {"correct", "attempted", "failed", "metrics",
                               "exit_code", "wall_s"}, key
        assert result["correct"] and result["exit_code"] == 0, key
        assert result["failed"] == 0 and result["attempted"] >= 1, key
        declared = spec.metric_table(SPEC, traced)
        assert list(result["metrics"]) == list(declared), key
        for metric, value in result["metrics"].items():
            assert value["unit"] == declared[metric]["unit"], (key, metric)
            assert isinstance(value["value"], float), (key, metric)
        if not traced:  # end-to-end metrics are never 0
            assert all(v["value"] > 0 for v in result["metrics"].values()), key


def test_every_per_layer_metric_is_measured_by_some_workload(passes):
    measured = set()
    for key, result in passes.items():
        if key != "outs" and key[1]:
            measured |= {m for m, v in result["metrics"].items() if v["value"]}
    # Fallbacks, leaks and unhidden waits are expected to read 0.
    expected_zero = {"hygiene.shm_segments_leaked", "cluster.shm_segments_leaked",
                     "pipeline.prefetch_abandoned", "pipeline.prefetch_deferred",
                     "pipeline.demand_fetch_ms_per_step",
                     "pipeline.stall_ms_per_step",
                     "cluster.checkpoint_ms_per_save"}  # quick runs never save
    missing = set(spec.metric_table(SPEC, True)) - measured - expected_zero
    assert not missing


def test_exact_counts_repeat_across_two_quick_runs(passes):
    first, second = passes["outs"]
    for name in REPEATED:
        exact = []
        for out in (first, second):
            with open(os.path.join(out, f"{name}-seed3.layers.json")) as handle:
                exact.append(json.load(handle)["exact"])
        assert exact[0] and exact[0] == exact[1], name


def test_layers_separate_the_workloads(passes):
    tight = passes[("gpu_tight", True, 0)]["metrics"]
    resident = passes[("gpu_resident", True, 0)]["metrics"]

    def page_path_share(metrics):
        return (metrics["allocator.move_busy_ms_per_step"]["value"]
                + metrics["forensics.capture_busy_ms_per_step"]["value"]
                ) / metrics["engine.step_p50_ms"]["value"]

    assert page_path_share(tight) >= 0.30
    assert page_path_share(resident) <= 0.05
    ladder = passes[("page_ladder", True, 0)]["metrics"]
    assert (ladder["allocator.efficiency_vs_floor.4m"]["value"]
            > ladder["allocator.efficiency_vs_floor.64k"]["value"])


def test_compare_of_a_file_with_itself_is_all_unchanged(passes, tmp_path):
    document = {"header": {}, "workloads": {}}
    for name in spec.workload_names(SPEC):
        metrics = passes[(name, False, 0)]["metrics"]
        with open(os.path.join(passes["outs"][0],
                               f"{name}-seed3.layers.json")) as handle:
            exact = json.load(handle)["exact"]
        document["workloads"][name] = {
            "end_to_end": {m: cli._summarise([v["value"]] * 2, v["unit"])
                           for m, v in metrics.items()},
            "exact": exact,
        }
    path = tmp_path / "result.json"
    path.write_text(json.dumps(document))
    printed = io.StringIO()
    with redirect_stdout(printed):
        status = cli.main(["compare", str(path), str(path)])
    rows = printed.getvalue().strip().splitlines()[1:]
    assert status == 0 and rows
    assert all(row.endswith("equal") or " unchanged (" in row for row in rows)


def test_verdicts():
    def side(median, iqr):
        return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2,
                "n": 10}

    assert cli.verdict(side(100, 1), side(100.5, 1), "lower", 0.1)[0] == "unchanged"
    assert cli.verdict(side(100, 1), side(120, 1), "lower", 0.1)[0] == "regressed"
    assert cli.verdict(side(100, 1), side(80, 1), "higher", 0.1)[0] == "regressed"
    assert cli.verdict(side(100, 1), side(95, 1), "lower", 0.1)[0] == "improved"
    assert cli.verdict(side(100, 30), side(120, 1), "lower", 0.1)[0] == "unresolved"
    single = dict(side(100, 0), n=1)
    assert cli.verdict(single, side(100, 1), "lower", 0.1)[0] == "unresolved"


def test_wrappers_are_fully_removed():
    from repro.engine.angel import AngelModel
    from repro.memory.allocator import PageAllocator
    from repro.memory.pool import DevicePool

    import repro.fleet.gateway as gateway_module
    from bench.workloads import engine, fleet

    targets = [(PageAllocator, "move_pages"), (DevicePool, "acquire_storage_run"),
               (AngelModel, "close"), (gateway_module, "save_snapshot")]
    originals = [vars(owner)[attr] for owner, attr in targets]
    tracer = Tracer()
    engine.install_wrappers(tracer, engine.Counts())
    fleet._install_wrappers(tracer)
    assert all(is_wrapped(owner, attr) for owner, attr in targets)
    tracer.remove_wrappers()
    assert [vars(owner)[attr] for owner, attr in targets] == originals
    assert not any(is_wrapped(owner, attr) for owner, attr in targets)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)
    assert tracer.spans[inner.parent] is outer
    assert {e["name"] for e in tracer.chrome_trace()["traceEvents"]} >= {"outer", "inner"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gpu_tight", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
