"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gpt3-175b" in out and "t5-moe-1.2t" in out

    def test_plan_reports_both_systems(self, capsys):
        assert main(["plan", "--model", "gpt3-28b", "--servers", "1"]) == 0
        out = capsys.readouterr().out
        assert "deepspeed" in out and "angel-ptm" in out
        assert "max depth" in out

    def test_simulate_reports_throughput(self, capsys):
        assert main([
            "simulate", "--model", "gpt3-1.7b", "--batch", "2", "--servers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "samples/s" in out and "GPU busy" in out

    def test_simulate_lock_free_reports_staleness(self, capsys):
        assert main([
            "simulate", "--model", "gpt3-55b", "--batch", "1",
            "--ssd", "--lock-free",
        ]) == 0
        assert "staleness" in capsys.readouterr().out

    def test_train_runs(self, capsys):
        assert main(["train", "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "final loss" in out

    @pytest.mark.parametrize("flag", ["--steps", "--gpu-mib"])
    def test_train_rejects_nonpositive(self, capsys, flag):
        assert main(["train", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert f"train: {flag} must be >= 1" in captured.err
        assert "final loss" not in captured.out

    def test_experiment_dispatch(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_experiment_unknown_name(self, capsys):
        assert main(["experiment", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_chaos_reports_faults_and_counters(self, capsys, tmp_path):
        assert main([
            "chaos", "--steps", "6", "--seed", "3", "--ckpt-every", "2",
            "--tier-death-after", "160", "--rank-failure-at", "4",
            "--workdir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "steps completed : 6" in out
        # The tier dies in step 3 and restores the step-2 checkpoint; the
        # step-4 rank failure restores the step-4 one.
        assert "tier deaths     : 1" in out
        assert "recoveries at   : [2, 4]" in out
        assert "tier_death" in out and "rank_failure" in out
        assert "faults.recoveries        2" in out
        assert "max |delta| 0.00e+00" in out

    def test_chaos_unified_metrics_dump(self, capsys, tmp_path):
        assert main([
            "chaos", "--steps", "6", "--seed", "0",
            "--workdir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "unified metrics :" in out
        # Fault counters and retry latencies share one registry.
        assert "faults.retries" in out
        assert "retry.backoff_seconds" in out

    @pytest.mark.parametrize("argv", [
        ["chaos", "--steps", "0"],
        ["chaos", "--ckpt-every", "0"],
        ["chaos", "--steps", "3", "--rank-failure-at", "9"],
        ["chaos", "--rank-failure-at", "-1"],
        ["chaos", "--transient-rate", "1.5"],
        ["chaos", "--torn-rate", "-0.1"],
        ["chaos", "--tier-death-after", "-5"],
        ["chaos", "--max-transients", "-1"],
        ["chaos", "--max-torn", "-1"],
        ["cluster", "--steps", "0"],
        ["cluster", "--workers", "0"],
        ["cluster", "--ckpt-every", "0"],
        ["cluster", "--workers", "2", "--kill-rank", "2"],
        ["cluster", "--kill-rank", "-1"],
        ["cluster", "--workers", "2", "--steps", "3", "--kill-rank", "1",
         "--at-step", "3"],
        ["cluster", "--workers", "2", "--steps", "3", "--kill-rank", "1",
         "--at-step", "-1"],
        ["cluster", "--workers", "2", "--steps", "3", "--kill-rank", "1",
         "--at-step", "9"],
    ])
    def test_fault_flags_no_run_can_inject_exit_2_before_training(
            self, argv, capsys, tmp_path):
        workdir = tmp_path / "run"
        assert main([*argv, "--workdir", str(workdir)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{argv[0]}: "), lines
        assert captured.out == ""
        assert not workdir.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--batch", "0"],
        ["plan", "--servers", "0"],
        ["check", "--schedule", "--batch", "0"],
        ["check", "--protocol", "--depth", "-1"],
        ["check", "--protocol", "--depth", "0"],
        ["check", "--protocol", "--workers", "0"],
        ["top", "WORKDIR", "--refresh", "-1"],
        ["top", "WORKDIR", "--once", "--refresh", "0"],
        ["report", "build", "WORKDIR/empty.json", "--out", "WORKDIR/nodir/x.md"],
    ])
    def test_bad_input_exits_2_with_one_line(self, argv, capsys, tmp_path):
        (tmp_path / "empty.json").write_text("{}")
        argv = [arg.replace("WORKDIR", str(tmp_path)) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{argv[0]}: "), lines
        assert captured.out == ""

    def test_chaos_fault_free_run(self, capsys, tmp_path):
        assert main([
            "chaos", "--steps", "4", "--transient-rate", "0",
            "--torn-rate", "0", "--workdir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "(none)" in out  # empty fault log
        assert "max |delta| 0.00e+00" in out  # bit-for-bit with the reference


class TestReportCli:
    RESULT = {
        "header": {"nproc": 2, "repeats": 1, "seconds": 0.8},
        "workloads": {"page_ladder": {
            "correct": True, "failed_frac": 0.0,
            "end_to_end": {"ops_per_s": {
                "unit": "1/s", "values": [5.0e4], "n": 1,
                "median": 5.0e4, "q1": 5.0e4, "q3": 5.0e4,
            }},
            "per_layer": {"ladder.moved_gb_per_s": {"value": 4.8,
                                                    "unit": "GB/s"}},
            "exact": {"ladder.pages_moved": 4096},
        }},
    }
    TRACE = {"traceEvents": [
        {"name": "thread_name", "ph": "M", "args": {"name": "MainThread"}},
        {"name": "move_pages", "ph": "X", "ts": 0, "dur": 3},
    ]}

    def test_report_build_renders_cluster_report(self, capsys, tmp_path):
        import json

        report = {
            "rollup": {"per_source": {"w0i0": {
                "role": "rank", "tenant": None, "last_step": 4,
                "skipped_lines": 0,
            }}},
            "rank_lanes": ["w0i0"],
            "alerts": [{"rule": "worker_liveness", "severity": "CRITICAL",
                        "step": 2, "message": "rank 1 silent"}],
        }
        (tmp_path / "report.json").write_text(json.dumps(report))
        assert main(["report", "build", str(tmp_path / "report.json")]) == 0
        assert "run_report.md" in capsys.readouterr().out
        markdown = (tmp_path / "run_report.md").read_text()
        assert "## Per-rank timeline" in markdown
        assert "| `w0i0` | rank | - | 4 | 0 |" in markdown
        assert "| 2 | CRITICAL | `worker_liveness` | rank 1 silent |" in markdown
        assert not (tmp_path / "run_report.html").exists()

    def test_report_build_from_bench_and_trace(self, capsys, tmp_path):
        import json

        (tmp_path / "result.json").write_text(json.dumps(self.RESULT))
        (tmp_path / "trace.json").write_text(json.dumps(self.TRACE))
        (tmp_path / "out").mkdir()
        assert main([
            "report", "build", str(tmp_path / "result.json"),
            "--trace", str(tmp_path / "trace.json"),
            "--out", str(tmp_path / "out" / "ladder.md"), "--html",
        ]) == 0
        assert "ladder.html" in capsys.readouterr().out
        markdown = (tmp_path / "out" / "ladder.md").read_text()
        assert "### page_ladder" in markdown
        assert "| ops_per_s | 5e+04 | [5e+04, 5e+04] | 1 | 1/s |" in markdown
        assert "| ladder.moved_gb_per_s | 4.8 | GB/s |" in markdown
        assert "| ladder.pages_moved | 4096 |" in markdown
        assert "1 slices across 1 tracks (`MainThread`)" in markdown
        html = (tmp_path / "out" / "ladder.html").read_text()
        assert html.startswith("<!DOCTYPE html>")

    def test_report_build_missing_bench(self, capsys, tmp_path):
        assert main([
            "report", "build", str(tmp_path / "missing.json"),
        ]) == 2
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("bench, trace, message", [
        ("{}", "missing.json", "no such file"),
        ("not json", None, "is not JSON"),
        ("[1, 2]", None, "holds a JSON list, not an object"),
        ("{}", "list.json", "holds a JSON list, not an object"),
    ])
    def test_report_build_bad_input_exits_2(self, capsys, tmp_path, bench,
                                             trace, message):
        (tmp_path / "bench.json").write_text(bench)
        (tmp_path / "list.json").write_text("[]")
        argv = ["report", "build", str(tmp_path / "bench.json")]
        if trace is not None:
            argv += ["--trace", str(tmp_path / trace)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("report: ") and message in err
        assert not (tmp_path / "run_report.md").exists()


class TestCheckCli:
    def _baseline_path(self):
        from pathlib import Path

        import repro

        return Path(repro.__file__).parent.parent.parent / "concurrency_baseline.json"

    def test_check_self_clean_against_committed_baseline(self, capsys):
        assert main([
            "check", "--self", "--baseline", str(self._baseline_path()),
        ]) == 0
        out = capsys.readouterr().out
        assert "accepted by baseline" in out
        assert "0 new" in out
        assert "check           : OK" in out

    def test_check_self_fails_without_baseline(self, capsys, tmp_path):
        # The accepted attach helper counts as new when the baseline is
        # empty: the gate fails and names the finding.
        assert main([
            "check", "--self", "--baseline", str(tmp_path / "none.json"),
        ]) == 1
        captured = capsys.readouterr()
        assert "SA004" in captured.out
        assert "attach_segment" in captured.out
        assert "FAILED" in captured.err

    def test_check_update_baseline_round_trip(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main([
            "check", "--self", "--update-baseline",
            "--baseline", str(baseline),
        ]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["check", "--self", "--baseline", str(baseline)]) == 0

    def test_check_schedule_verifies_small_model(self, capsys):
        assert main([
            "check", "--schedule", "--model", "gpt3-1.7b", "--batch", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "schedule verified: 8 invariants, 0 violations" in out

    def test_check_json_payload(self, capsys):
        import json

        assert main([
            "check", "--json", "--model", "gpt3-1.7b", "--batch", "1",
            "--baseline", str(self._baseline_path()),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["self"]["new"] == []
        assert payload["schedule"]["ok"] is True
        names = [i["name"] for i in payload["schedule"]["invariants"]]
        assert "use-before-fetch" in names and "oom-at-trigger" in names
        # The default run also model-checks the coordinator protocol.
        assert payload["protocol"]["ok"] is True
        assert payload["protocol"]["kind"] == "protocol"

    def test_check_protocol_explores_clean_model(self, capsys):
        assert main(["check", "--protocol", "--depth", "5"]) == 0
        out = capsys.readouterr().out
        assert "protocol verified: 9 invariants, 0 violations" in out
        assert "states" in out

    def test_check_protocol_json_carries_stats(self, capsys):
        import json

        assert main([
            "check", "--protocol", "--json", "--depth", "4", "--workers", "2",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        protocol = payload["protocol"]
        assert protocol["ok"] is True
        assert protocol["stats"]["states"] > 0
        assert protocol["stats"]["depth"] == 4
        assert "schedule" not in payload  # explicit prong selection

    def test_check_cluster_verifies_workdir(self, capsys, tmp_path):
        import json

        events = [
            {"type": "generation_formed", "time": 0.0, "generation": 1,
             "world": 1, "members": {"w0i0": 0}},
            {"type": "complete", "time": 1.0, "generation": 1, "world": 1},
        ]
        (tmp_path / "membership_events.jsonl").write_text(
            "\n".join(json.dumps(e) for e in events) + "\n"
        )
        assert main(["check", "--cluster", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cluster verified" in out

    def test_check_cluster_reports_counterexample(self, capsys, tmp_path):
        import json

        events = [
            {"type": "generation_formed", "time": 0.0, "generation": 1,
             "world": 2, "members": {"w0i0": 0, "w1i0": 1}},
            # Reformed without fencing generation 1 first.
            {"type": "generation_formed", "time": 1.0, "generation": 2,
             "world": 1, "members": {"w0i0": 0}},
        ]
        (tmp_path / "membership_events.jsonl").write_text(
            "\n".join(json.dumps(e) for e in events) + "\n"
        )
        assert main(["check", "--cluster", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "fence-discipline" in captured.out
        assert "FAILED" in captured.err
