"""Examples stay runnable: subprocess smoke tests for the fast ones."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_example(name: str, timeout: int = 240, cwd: str = ".") -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", f"{name}.py")],
        capture_output=True, text=True, timeout=timeout, cwd=cwd, env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart_runs_and_learns():
    out = run_example("quickstart")
    assert "final loss" in out
    assert "memory tiers" in out


def test_capacity_planning_runs():
    out = run_example("capacity_planning")
    assert "deepspeed" in out and "angel-ptm + SSD" in out
    assert "larger model" in out


@pytest.mark.parametrize("name", ["finetune_hierarchical"])
def test_other_examples_run(name):
    out = run_example(name)
    assert "loss" in out


def test_extreme_scale_ssd_lockfree_runs():
    out = run_example("extreme_scale_ssd_lockfree")
    assert "400 sweeps" in out and "100 sweeps" in out
    assert "4x fewer sweeps" in out


def test_elastic_training_resumes_on_more_ranks_and_writes_nothing(tmp_path):
    out = run_example("elastic_training", cwd=str(tmp_path))
    assert "phase 1: 2-rank" in out
    assert "resumed on 4 ranks" in out
    delta = float(out.rsplit("max |delta| vs the 1-process reference ", 1)[1].split()[0])
    assert delta < 1e-4
    assert list(tmp_path.iterdir()) == []
