"""The unified ``repro.api`` facade.

``repro.api`` is the supported address for the whole toolkit; the engine
names are not re-exported at the top level.
"""

import warnings

import numpy as np
import pytest

import repro
from repro import api
from repro.units import KiB, MiB


def tiny_engine(**config_kwargs):
    from repro.nn import MixedPrecisionAdam, TinyTransformerLM

    model = TinyTransformerLM(
        vocab_size=16, d_model=16, d_ffn=32, num_heads=2, num_layers=2,
        max_seq=8, seed=1,
    )
    opt = MixedPrecisionAdam(model.parameters(), lr=2e-3)
    config = api.AngelConfig(
        gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
        page_bytes=32 * KiB, **config_kwargs,
    )
    return api.initialize(model, opt, config)


class TestFacade:
    def test_initialize_trains(self):
        from repro.nn import lm_synthetic_batches

        with tiny_engine() as engine:
            batch = next(iter(lm_synthetic_batches(16, 8, 4, 1, seed=2)))
            loss = engine(batch)
            engine.backward(loss)
            engine.step()
            assert np.isfinite(loss.item())

    def test_check_accepts_live_plan(self):
        from repro.nn import lm_synthetic_batches

        with tiny_engine(pipeline=True) as engine:
            for batch in lm_synthetic_batches(16, 8, 4, 2, seed=2):
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
            plan = engine.executed_plan()
            budget = engine.config.gpu_memory_bytes
        assert plan is not None
        result = api.check(plan, gpu_budget_bytes=budget)
        assert result.ok, result.violations

    def test_check_accepts_simulated_plan(self):
        from repro.hardware.cluster import a100_cluster
        from repro.models import get_model
        from repro.scheduler.unified import UnifiedScheduler

        scheduler = UnifiedScheduler(a100_cluster(1))
        plan = scheduler.plan(get_model("gpt3-13b"), micro_batch=4)
        result = api.check(plan, gpu_budget_bytes=scheduler.gpu_budget)
        assert result.ok, result.violations

    def test_chaos_runs_reference_scenario(self, tmp_path):
        from repro.resilience import ChaosConfig, run_reference

        config = ChaosConfig(steps=4, checkpoint_every=2)
        result = api.chaos(config, workdir=str(tmp_path))
        assert result.steps_completed == 4
        assert result.counters["tier_deaths"] == 0
        assert result.recovery_steps == []
        assert result.losses == run_reference(config)

    def test_report_renders_from_dict(self, tmp_path):
        payload = {"alerts": [{"rule": "waterline", "severity": "WARNING",
                               "step": 3, "message": "gpu headroom low"}]}
        written = api.report(payload, tmp_path / "run_report.md")
        assert written == [str(tmp_path / "run_report.md")]
        text = (tmp_path / "run_report.md").read_text()
        assert "| 3 | WARNING | `waterline` | gpu headroom low |" in text

    def test_all_names_exist(self):
        for name in api.__all__:
            assert hasattr(api, name), name


class TestTopLevelNamespace:
    def test_engine_names_live_in_api_only(self):
        for name in ("AngelConfig", "AngelModel", "initialize"):
            with pytest.raises(AttributeError):
                getattr(repro, name)
            assert hasattr(api, name)

    def test_supported_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repro.api is api
            assert repro.errors is not None
            assert repro.units.MiB == MiB

    def test_every_module_all_resolves(self):
        """Every ``repro.*`` module imports and exports only names it has."""
        import importlib
        import pkgutil

        modules = [info.name for info in
                   pkgutil.walk_packages(repro.__path__, "repro.")]
        assert "repro.api" in modules and "repro.cli" in modules
        dangling = [
            f"{name}.{export}"
            for name in modules
            for export in getattr(importlib.import_module(name), "__all__", ())
            if not hasattr(importlib.import_module(name), export)
        ]
        assert dangling == []

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist
