"""Every ``repro`` flag changes the run, or exits 2 where it cannot apply.

The guard walks :func:`repro.cli.build_parser` and demands a case in
``REACHES`` for every option of every subcommand: an argv with a
non-default value, and a check that the value arrived at the library
call the command makes. Spies stand in for those calls (the references,
``run_chaos``, ``run_cluster``, the verifiers, the training loop), so
nothing trains and no process is spawned; the spy a command calls last
raises :class:`Stop`. A new flag with no case fails
``test_every_option_has_a_case``.

``REFUSED`` lists the argvs on which a flag cannot apply. Each must exit
2 with one stderr line before any library call runs and before any
workdir is made.
"""

import argparse
import dataclasses
import functools
import json
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.cli import build_parser, main
from repro.units import MiB


class Stop(Exception):
    """Raised by the last spy a command calls: the run ends there."""


#: Per command: ``{spy name: (patch target, attribute path that raises
#: Stop or None, return value)}``.
HARNESS = {
    "plan": {"planner": ("repro.engine.planner.CapacityPlanner",
                         "return_value.max_layers", None)},
    "simulate": {"scheduler": ("repro.scheduler.unified.UnifiedScheduler",
                               "return_value.simulate", None)},
    "train": {"factory": ("repro.fleet.factory.JobFactory",
                          "return_value.train", None)},
    "chaos": {
        "reference": ("repro.resilience.chaos.run_reference", None, [1.0]),
        "run": ("repro.resilience.chaos.run_chaos", "", None),
    },
    "cluster": {
        "reference": ("repro.cluster.worker.run_cluster_reference", None,
                      [1.0]),
        "run": ("repro.cluster.supervisor.run_cluster", "", None),
    },
    "check": {
        "lint": ("repro.analysis.lint.lint_tree", None, []),
        "load": ("repro.analysis.baseline.load_baseline", None, {}),
        "save": ("repro.analysis.baseline.save_baseline", "", None),
        "compare": ("repro.analysis.baseline.compare", "", None),
        "scheduler": ("repro.scheduler.unified.UnifiedScheduler",
                      "return_value.plan", None),
        "live": ("repro.engine.liveplan.run_live_plan", "", None),
        "explore": ("repro.analysis.protocol.explore_protocol", "", None),
        "replay": ("repro.analysis.protocol.verify_cluster_workdir", "",
                   None),
    },
    "report build": {"write": ("repro.observe.report.write_report", "",
                               None)},
    "top": {
        "tail": ("repro.telemetry.collect.tail_state", None, {}),
        "render": ("repro.telemetry.collect.render_top", None, "frame"),
        "sleep": ("time.sleep", "", None),
    },
    "trace collect": {"collector": (
        "repro.telemetry.collect.TraceCollector", None, None)},
    "experiment": {"run": ("repro.experiments.table2.run", "", None)},
}


def call(spy) -> mock._Call:
    assert spy.called, "the library call never happened"
    return spy.call_args


def arg(spy, index):
    return call(spy).args[index]


def kwarg(spy, name):
    return call(spy).kwargs[name]


def _planner(s):
    return s["planner"].return_value.max_layers


def _simulate(s):
    return s["scheduler"].return_value.simulate


def _schedule(s):
    return s["scheduler"].return_value.plan


def _run_config(s):
    """The ``ChaosConfig`` or ``ClusterConfig`` the run was given."""
    return arg(s["run"], 0)


def _engine_config(s):
    return arg(s["factory"].return_value.engine, 0)


def _workload(s):
    return arg(s["factory"], 0)


def _collected():
    return SimpleNamespace(streams=[], skipped_lines=0, rank_lanes=["w0i0"],
                           rollup={}, save=mock.MagicMock())


def _cluster_report():
    from repro.cluster.supervisor import ClusterReport

    return ClusterReport(complete=True, losses=[1.0], steps_completed=1)


def _protocol_result():
    return mock.MagicMock(ok=True, **{"to_dict.return_value": {"ok": True}})


#: ``(command, option) -> (argv, check(spies, code, out, err), return
#: value overrides)``. ``{tmp}`` in an argv is the test's tmp_path.
REACHES = {
    ("plan", "--model"): (["plan", "--model", "gpt3-1.7b"],
                          lambda s, *_: arg(_planner(s), 0).name == "gpt3-1.7b"),
    ("plan", "--servers"): (["plan", "--servers", "3"],
                            lambda s, *_: arg(s["planner"], 0).num_servers == 3),
    ("plan", "--cluster"): (["plan", "--cluster", "{tmp}/cluster.json"],
                            lambda s, *_: arg(s["planner"], 0).num_servers == 5),
    ("plan", "--seq-len"): (["plan", "--seq-len", "512"],
                            lambda s, *_: kwarg(_planner(s), "seq_len") == 512),
    ("plan", "--ssd"): (["plan", "--ssd"],
                        lambda s, *_: kwarg(_planner(s), "use_ssd") is True),

    ("simulate", "--model"): (["simulate", "--model", "gpt3-1.7b"],
                              lambda s, *_: arg(_simulate(s), 0).name == "gpt3-1.7b"),
    ("simulate", "--servers"): (["simulate", "--servers", "3"],
                                lambda s, *_: arg(s["scheduler"], 0).num_servers == 3),
    ("simulate", "--cluster"): (["simulate", "--cluster", "{tmp}/cluster.json"],
                                lambda s, *_: arg(s["scheduler"], 0).num_servers == 5),
    ("simulate", "--batch"): (["simulate", "--batch", "2"],
                              lambda s, *_: arg(_simulate(s), 1) == 2),
    ("simulate", "--seq-len"): (["simulate", "--seq-len", "512"],
                                lambda s, *_: kwarg(_simulate(s), "seq_len") == 512),
    ("simulate", "--ssd"): (["simulate", "--ssd"],
                            lambda s, *_: kwarg(_simulate(s), "use_ssd") is True),
    ("simulate", "--lock-free"): (["simulate", "--lock-free"],
                                  lambda s, *_: kwarg(_simulate(s), "lock_free") is True),

    ("train", "--steps"): (["train", "--steps", "7"],
                           lambda s, *_: arg(s["factory"].return_value.train, 1) == 7),
    ("train", "--layers"): (["train", "--layers", "3"],
                            lambda s, *_: _workload(s).layers == 3),
    ("train", "--lr"): (["train", "--lr", "0.5"],
                        lambda s, *_: _workload(s).lr == 0.5),
    ("train", "--seed"): (["train", "--seed", "9"],
                          lambda s, *_: _workload(s).seed == 9),
    ("train", "--gpu-mib"): (["train", "--gpu-mib", "7"],
                             lambda s, *_: _engine_config(s).gpu_memory_bytes == 7 * MiB),
    ("train", "--ssd"): (["train", "--ssd"],
                         lambda s, *_: _engine_config(s).ssd_bytes > 0),
    ("train", "--lock-free"): (["train", "--lock-free"],
                               lambda s, *_: _engine_config(s).lock_free),
    ("train", "--pipeline"): (["train", "--pipeline"],
                              lambda s, *_: _engine_config(s).pipeline),

    ("chaos", "--steps"): (["chaos", "--steps", "4"],
                           lambda s, *_: _run_config(s).steps == 4),
    ("chaos", "--layers"): (["chaos", "--layers", "1"],
                            lambda s, *_: _run_config(s).layers == 1),
    ("chaos", "--seed"): (["chaos", "--seed", "5"],
                          lambda s, *_: _run_config(s).seed == 5),
    ("chaos", "--ckpt-every"): (["chaos", "--ckpt-every", "2"],
                                lambda s, *_: _run_config(s).checkpoint_every == 2),
    ("chaos", "--transient-rate"): (
        ["chaos", "--transient-rate", "0.1"],
        lambda s, *_: (_run_config(s).transient_read_rate
                       == _run_config(s).transient_write_rate == 0.1)),
    ("chaos", "--max-transients"): (["chaos", "--max-transients", "3"],
                                    lambda s, *_: _run_config(s).max_transients == 3),
    ("chaos", "--torn-rate"): (["chaos", "--torn-rate", "0.01"],
                               lambda s, *_: _run_config(s).torn_write_rate == 0.01),
    ("chaos", "--max-torn"): (["chaos", "--max-torn", "1"],
                              lambda s, *_: _run_config(s).max_torn_writes == 1),
    ("chaos", "--tier-death-after"): (
        ["chaos", "--tier-death-after", "50"],
        lambda s, *_: _run_config(s).die_after_ops == 50),
    ("chaos", "--rank-failure-at"): (
        ["chaos", "--rank-failure-at", "2"],
        lambda s, *_: _run_config(s).rank_failure_at_step == 2),
    ("chaos", "--workdir"): (["chaos", "--workdir", "{tmp}/run"],
                             lambda s, *_: arg(s["run"], 1).endswith("/run")),

    ("cluster", "--workers"): (["cluster", "--workers", "2"],
                               lambda s, *_: _run_config(s).world_size == 2),
    ("cluster", "--steps"): (["cluster", "--steps", "4"],
                             lambda s, *_: _run_config(s).steps == 4),
    ("cluster", "--ckpt-every"): (["cluster", "--ckpt-every", "2"],
                                  lambda s, *_: _run_config(s).checkpoint_every == 2),
    ("cluster", "--seed"): (["cluster", "--seed", "5"],
                            lambda s, *_: _run_config(s).seed == 5),
    ("cluster", "--layers"): (["cluster", "--layers", "1"],
                              lambda s, *_: _run_config(s).layers == 1),
    ("cluster", "--kill-rank"): (
        ["cluster", "--kill-rank", "1"],
        lambda s, *_: (_run_config(s).kill_rank,
                       _run_config(s).kill_at_step) == (1, 6)),
    ("cluster", "--at-step"): (["cluster", "--kill-rank", "1", "--at-step", "3"],
                               lambda s, *_: _run_config(s).kill_at_step == 3),
    ("cluster", "--step-delay"): (["cluster", "--step-delay", "0.5"],
                                  lambda s, *_: _run_config(s).step_delay == 0.5),
    ("cluster", "--grace"): (["cluster", "--grace", "2.5"],
                             lambda s, *_: _run_config(s).rendezvous_grace == 2.5),
    ("cluster", "--timeout"): (["cluster", "--timeout", "30"],
                               lambda s, *_: _run_config(s).run_timeout == 30.0),
    ("cluster", "--workdir"): (["cluster", "--workdir", "{tmp}/run"],
                               lambda s, *_: arg(s["run"], 1).endswith("/run")),
    ("cluster", "--report"): (
        ["cluster", "--report", "{tmp}/report.json"],
        lambda s, code, *_: code == 0 and json.loads(
            (s["tmp"] / "report.json").read_text())["failures"] == [],
        {"run": _cluster_report}),

    ("check", "--self"): (["check", "--self"],
                          lambda s, *_: s["compare"].called and not s["explore"].called),
    ("check", "--baseline"): (["check", "--self", "--baseline", "{tmp}/b.json"],
                              lambda s, *_: arg(s["load"], 0) == s["tmp"] / "b.json"),
    ("check", "--update-baseline"): (["check", "--self", "--update-baseline"],
                                     lambda s, *_: s["save"].called),
    ("check", "--schedule"): (["check", "--schedule"],
                              lambda s, *_: _schedule(s).called and not s["lint"].called),
    ("check", "--live"): (["check", "--schedule", "--live"],
                          lambda s, *_: s["live"].called and not s["scheduler"].called),
    ("check", "--model"): (["check", "--schedule", "--model", "gpt3-1.7b"],
                           lambda s, *_: arg(_schedule(s), 0).name == "gpt3-1.7b"),
    ("check", "--servers"): (["check", "--schedule", "--servers", "2"],
                             lambda s, *_: arg(s["scheduler"], 0).num_servers == 2),
    ("check", "--batch"): (["check", "--schedule", "--batch", "2"],
                           lambda s, *_: arg(_schedule(s), 1) == 2),
    ("check", "--seq-len"): (["check", "--schedule", "--seq-len", "512"],
                             lambda s, *_: kwarg(_schedule(s), "seq_len") == 512),
    ("check", "--protocol"): (["check", "--protocol"],
                              lambda s, *_: s["explore"].called and not s["lint"].called),
    ("check", "--depth"): (["check", "--protocol", "--depth", "3"],
                           lambda s, *_: kwarg(s["explore"], "depth") == 3),
    ("check", "--workers"): (["check", "--protocol", "--workers", "3"],
                             lambda s, *_: kwarg(s["explore"], "config").world_size == 3),
    ("check", "--cluster"): (["check", "--cluster", "{tmp}"],
                             lambda s, *_: arg(s["replay"], 0) == str(s["tmp"])),
    ("check", "--json"): (
        ["check", "--protocol", "--json"],
        lambda s, code, out, _: json.loads(out) == {"protocol": {"ok": True}},
        {"explore": _protocol_result}),

    ("report build", "payload"): (
        ["report", "build", "{tmp}/payload.json"],
        lambda s, *_: arg(s["write"], 0) == {"payload": 1}),
    ("report build", "--trace"): (
        ["report", "build", "{tmp}/payload.json", "--trace", "{tmp}/trace.json"],
        lambda s, *_: kwarg(s["write"], "trace") == {"traceEvents": []}),
    ("report build", "--out"): (
        ["report", "build", "{tmp}/payload.json", "--out", "{tmp}/r.md"],
        lambda s, *_: arg(s["write"], 1) == s["tmp"] / "r.md"),
    ("report build", "--html"): (
        ["report", "build", "{tmp}/payload.json", "--html"],
        lambda s, *_: kwarg(s["write"], "html") is True),

    ("top", "workdir"): (["top", "{tmp}"],
                         lambda s, *_: arg(s["tail"], 0) == str(s["tmp"])),
    ("top", "--refresh"): (["top", "{tmp}", "--refresh", "2.5"],
                           lambda s, *_: arg(s["sleep"], 0) == 2.5),
    ("top", "--once"): (["top", "{tmp}", "--once"],
                        lambda s, code, out, _: code == 0 and "frame" in out
                        and not s["sleep"].called),

    ("trace collect", "workdir"): (
        ["trace", "collect", "{tmp}"],
        lambda s, *_: arg(s["collector"], 0) == str(s["tmp"])),
    ("trace collect", "--out"): (
        ["trace", "collect", "{tmp}", "--out", "{tmp}/t.json"],
        lambda s, *_: arg(s["collected"].save, 0) == f"{s['tmp']}/t.json"),
    ("trace collect", "--rollup"): (
        ["trace", "collect", "{tmp}", "--rollup", "{tmp}/r.json"],
        lambda s, *_: arg(s["collected"].save, 1) == f"{s['tmp']}/r.json"),
    ("trace collect", "--min-rank-lanes"): (
        ["trace", "collect", "{tmp}", "--min-rank-lanes", "2"],
        lambda s, code, _, err: code == 1 and "need >= 2" in err),

    ("experiment", "name"): (["experiment", "table2"],
                             lambda s, *_: s["run"].called),
}

#: Argvs on which a flag cannot apply.
REFUSED = [
    ["plan", "--cluster", "{tmp}/cluster.json", "--servers", "2"],
    ["simulate", "--cluster", "{tmp}/cluster.json", "--servers", "2"],
    ["cluster", "--at-step", "3", "--workdir", "{tmp}/run"],
    ["top", "{tmp}", "--once", "--refresh", "2"],
    ["check", "--cluster", "{tmp}", "--live"],
    ["check", "--protocol", "--live"],
    *(["check", "--schedule", "--live", flag, value]
      for flag, value in (("--model", "gpt3-1.7b"), ("--servers", "2"),
                          ("--batch", "2"), ("--seq-len", "512"))),
    *(["check", "--protocol", flag, value]
      for flag, value in (("--model", "gpt3-1.7b"), ("--servers", "2"),
                          ("--batch", "2"), ("--seq-len", "512"))),
    ["check", "--schedule", "--depth", "3"],
    ["check", "--self", "--workers", "3"],
    ["check", "--schedule", "--baseline", "{tmp}/b.json"],
    ["check", "--protocol", "--update-baseline"],
]


def parser_options() -> set[tuple[str, str]]:
    """``(command path, first option string or positional)`` for every
    argument of every subcommand."""
    found = set()

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, (*path, name))
            elif not isinstance(action, argparse._HelpAction) and path:
                found.add((" ".join(path),
                           (action.option_strings or [action.dest])[0]))

    walk(build_parser(), ())
    return found


def command_of(argv) -> str:
    return " ".join(argv[:2]) if argv[0] in ("report", "trace") else argv[0]


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "cluster.json").write_text('{"num_servers": 5}')
    (tmp_path / "payload.json").write_text('{"payload": 1}')
    (tmp_path / "trace.json").write_text('{"traceEvents": []}')
    return tmp_path


def install(monkeypatch, command, overrides=None) -> dict:
    spies = {}
    for name, (target, stop, value) in HARNESS[command].items():
        spy = mock.MagicMock()
        if value is not None:
            spy.return_value = value
        if name in (overrides or {}):
            spy.return_value = overrides[name]()
        elif stop is not None:
            target_attr = functools.reduce(getattr, stop.split("."), spy) \
                if stop else spy
            target_attr.side_effect = Stop
        monkeypatch.setattr(target, spy)
        spies[name] = spy
    if command == "trace collect":
        spies["collected"] = _collected()
        spies["collector"].return_value.collect.return_value = spies["collected"]
    return spies


def test_every_option_has_a_case():
    assert set(REACHES) == parser_options()


@pytest.mark.parametrize("key", sorted(REACHES), ids=" ".join)
def test_flag_reaches_the_library_call(key, workspace, monkeypatch, capsys):
    argv, check, *overrides = REACHES[key]
    argv = [part.format(tmp=workspace) for part in argv]
    spies = install(monkeypatch, command_of(argv), *overrides)
    spies["tmp"] = workspace
    try:
        code = main(argv)
    except Stop:
        code = None
    captured = capsys.readouterr()
    assert check(spies, code, captured.out, captured.err), (
        argv, code, captured.err)


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_flag_that_cannot_apply_exits_2(argv, workspace, monkeypatch, capsys):
    argv = [part.format(tmp=workspace) for part in argv]
    spies = install(monkeypatch, command_of(argv))
    for spy in spies.values():
        spy.side_effect = Stop  # any library call fails the test
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{argv[0]}: "), lines
    assert captured.out == ""
    assert not (workspace / "run").exists()
    assert not any(spy.called for spy in spies.values())


@pytest.mark.parametrize("evictions,respawns,code", [
    (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 0),
])
def test_cluster_kill_that_never_took_effect_fails(
        evictions, respawns, code, workspace, monkeypatch, capsys):
    def report():
        return dataclasses.replace(
            _cluster_report(), evictions=evictions, respawns=respawns)

    install(monkeypatch, "cluster", {"run": report})
    assert main(["cluster", "--kill-rank", "1"]) == code
    lines = capsys.readouterr().err.splitlines()
    assert lines == ([] if code == 0 else [
        f"cluster: FAIL: --kill-rank 1 never took effect "
        f"({evictions} evictions, {respawns} respawns)"])


@pytest.mark.parametrize("tier_deaths,code", [(0, 1), (1, 0)])
def test_chaos_tier_death_that_never_happened_fails(
        tier_deaths, code, workspace, monkeypatch, capsys):
    from repro.resilience.trainer import ChaosReport

    def report():
        return ChaosReport(losses=[1.0], steps_completed=1,
                           counters={"tier_deaths": tier_deaths})

    install(monkeypatch, "chaos", {"run": report})
    assert main(["chaos", "--tier-death-after", "100000"]) == code
    lines = capsys.readouterr().err.splitlines()
    assert lines == ([] if code == 0 else [
        "chaos: FAIL: --tier-death-after 100000 never took effect "
        "(0 tier deaths)"])


@pytest.mark.parametrize("command", ["chaos", "cluster"])
def test_tolerance_is_gone(command, capsys):
    """The gate is exact, so no tolerance can be asked for."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--tolerance", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


def test_check_without_prong_flags_runs_every_workdir_free_prong(
        workspace, monkeypatch, capsys):
    spies = install(monkeypatch, "check")
    spies["compare"].side_effect = None
    spies["compare"].return_value = {"new": [], "accepted": [],
                                     "resolved": []}
    with pytest.raises(Stop):
        main(["check", "--depth", "3"])
    assert spies["compare"].called and _schedule(spies).called
    assert not spies["explore"].called  # the schedule prong stopped it
    assert not spies["replay"].called
    assert Path(arg(spies["load"], 0)).name == "concurrency_baseline.json"
