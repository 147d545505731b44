"""Examples stay runnable: subprocess smoke tests for the fast ones."""

import subprocess
import sys

import pytest


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, f"examples/{name}.py"],
        capture_output=True, text=True, timeout=timeout, cwd=".",
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
