"""Observe subsystem: watchdog rules, OOM forensics, run reports."""

import json

import pytest

from repro.errors import ConfigurationError, OutOfMemoryError
from repro.hardware.device import DeviceKind
from repro.memory.allocator import PageAllocator
from repro.memory.pool import DevicePool
from repro.observe import (
    Alert,
    CacheThrashRule,
    ForensicRecorder,
    RetryStormRule,
    Severity,
    StepSnapshot,
    TierBandwidthRule,
    Watchdog,
    WaterlineRule,
    WorkerLivenessRule,
    render_html,
    render_markdown,
    write_report,
)
from repro.telemetry import Telemetry
from repro.units import KiB, MiB


def snap(step, counters=None, gauges=None, memory=None):
    return StepSnapshot(
        step=step, counters=counters or {}, gauges=gauges or {},
        memory=memory or {},
    )


class TestAlerts:
    def test_severity_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.CRITICAL


class TestRules:
    def test_cache_thrash_after_warmup(self):
        rule = CacheThrashRule(window=4, warmup_steps=2, floor=0.5, critical=0.2)
        hits, demands = 0, 0
        fired = []
        for step in range(1, 8):
            demands += 10  # all misses: rate 0
            fired += rule.evaluate(snap(
                step, counters={
                    "cache.prefetch_hits": hits,
                    "cache.demand_fetches": demands,
                },
            ))
        assert fired and fired[0].severity is Severity.CRITICAL
        assert fired[0].evidence["window_hit_rate"] == 0.0

    def test_cache_thrash_quiet_when_healthy(self):
        rule = CacheThrashRule(window=4, warmup_steps=1, floor=0.5, critical=0.2)
        hits = 0
        for step in range(1, 8):
            hits += 10  # all hits
            assert rule.evaluate(snap(
                step, counters={
                    "cache.prefetch_hits": hits,
                    "cache.demand_fetches": 0,
                },
            )) == []

    def test_tier_bandwidth_parses_edge_and_fires(self):
        rule = TierBandwidthRule(budget_bytes_per_step=1 * MiB, window=4)
        key = "pages.moved_bytes{dst=gpu,src=cpu}"
        assert rule.evaluate(snap(1, counters={key: 0})) == []
        fired = rule.evaluate(snap(2, counters={key: 8 * MiB}))
        assert fired and fired[0].evidence["edge"] == "cpu->gpu"
        assert fired[0].severity is Severity.CRITICAL  # 8x budget

    def test_waterline_near_miss_with_history(self):
        rule = WaterlineRule(margin=0.10, critical=0.02, history=8)
        healthy = {"gpu": {"used_bytes": 50, "free_bytes": 50}}
        assert rule.evaluate(snap(1, memory=healthy)) == []
        tight = {"gpu": {"used_bytes": 95, "free_bytes": 5}}
        fired = rule.evaluate(snap(2, memory=tight))
        assert fired and fired[0].severity is Severity.WARNING
        assert fired[0].evidence["tier"] == "gpu"
        # History carries the healthy sample too — the trajectory, not
        # just the instant.
        assert len(fired[0].evidence["recent_headroom"]) == 2

    def test_waterline_critical_when_exhausted(self):
        rule = WaterlineRule(margin=0.10, critical=0.02, history=8)
        fired = rule.evaluate(
            snap(1, memory={"gpu": {"used_bytes": 100, "free_bytes": 0}})
        )
        assert fired and fired[0].severity is Severity.CRITICAL

    def test_retry_storm_windowed_delta(self):
        rule = RetryStormRule(window=4, threshold=6, critical=16)
        assert rule.evaluate(snap(1, counters={"retry.attempts": 0})) == []
        assert rule.evaluate(snap(2, counters={"retry.attempts": 3})) == []
        fired = rule.evaluate(snap(3, counters={"retry.attempts": 9}))
        assert fired and fired[0].evidence["retries_in_window"] == 9.0

    def test_cooldown_suppresses_repeats_but_not_escalations(self):
        rule = WaterlineRule(margin=0.10, critical=0.02, history=8)
        rule.cooldown_steps = 4
        warn = {"gpu": {"used_bytes": 95, "free_bytes": 5}}
        crit = {"gpu": {"used_bytes": 100, "free_bytes": 0}}
        assert rule.evaluate(snap(1, memory=warn))  # fires
        assert rule.evaluate(snap(2, memory=warn)) == []  # cooldown
        assert rule.evaluate(snap(3, memory=crit))  # escalation bypasses
        assert rule.evaluate(snap(10, memory=warn))  # cooldown expired

    def test_worker_liveness_quiet_without_cluster_gauges(self):
        rule = WorkerLivenessRule(warning=1, critical=2)
        assert rule.evaluate(snap(1)) == []
        assert rule.evaluate(
            snap(2, gauges={"cluster.heartbeat.missed{worker=w0i0}": 0})
        ) == []

    def test_worker_liveness_warns_then_escalates(self):
        rule = WorkerLivenessRule(warning=1, critical=2)
        fired = rule.evaluate(
            snap(3, gauges={"cluster.heartbeat.missed{worker=w1i0}": 1})
        )
        assert fired and fired[0].severity is Severity.WARNING
        assert "w1i0" in fired[0].message
        fired = rule.evaluate(
            snap(9, gauges={
                "cluster.heartbeat.missed{worker=w1i0}": 2,
                "cluster.heartbeat.missed{worker=w2i0}": 1,
            })
        )
        assert fired and fired[0].severity is Severity.CRITICAL
        assert fired[0].evidence["workers"] == {"w1i0": 2.0, "w2i0": 1.0}

    def test_worker_liveness_validates_thresholds(self):
        with pytest.raises(ConfigurationError):
            WorkerLivenessRule(warning=3, critical=2)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            WaterlineRule(margin=0.01, critical=0.05)


class TestWatchdog:
    def test_observe_step_publishes_everywhere(self):
        telemetry = Telemetry()
        watchdog = Watchdog(telemetry=telemetry)
        telemetry.record_heartbeat("w1i0", age_seconds=1.0, missed=5)
        fired = watchdog.observe_step(step=1)
        assert [a.rule for a in fired] == ["worker_liveness"]
        assert watchdog.alerts == fired
        assert [a.severity for a in watchdog.alerts] == [Severity.CRITICAL]
        # Counted in the registry it watches...
        assert telemetry.registry.value(
            "watchdog.alerts", rule="worker_liveness", severity="CRITICAL"
        ) == 1
        # ...and serializable for the fleet report.
        assert watchdog.payload()[0]["rule"] == "worker_liveness"

    def test_disabled_telemetry_still_evaluates_memory_rules(self):
        watchdog = Watchdog()  # NULL_TELEMETRY: no counters to read
        fired = watchdog.observe_step(
            step=1, memory={"gpu": {"used_bytes": 100, "free_bytes": 0}}
        )
        assert [a.rule for a in fired] == ["waterline"]

    def test_quiet_run_fires_nothing(self):
        watchdog = Watchdog(telemetry=Telemetry())
        for step in range(1, 6):
            assert watchdog.observe_step(step=step) == []
        assert watchdog.alerts == []


def build_allocator(gpu_pages=4, page_bytes=1 * KiB, forensics=None):
    pools = {
        DeviceKind.GPU: DevicePool(
            DeviceKind.GPU, gpu_pages * page_bytes, page_bytes
        ),
        DeviceKind.CPU: DevicePool(DeviceKind.CPU, 16 * page_bytes, page_bytes),
    }
    return PageAllocator(pools, forensics=forensics)


class TestForensics:
    def test_oom_error_carries_forensic_dump(self):
        recorder = ForensicRecorder()
        allocator = build_allocator(gpu_pages=2, forensics=recorder)
        recorder.set_context(pinned=["layer0.weight"])
        recorder.sample(0, allocator.residency_report())
        allocator.allocate((256,), "float32", DeviceKind.GPU)
        allocator.allocate((256,), "float32", DeviceKind.GPU)
        recorder.sample(1, allocator.residency_report())
        with pytest.raises(OutOfMemoryError) as exc_info:
            allocator.allocate((256,), "float32", DeviceKind.GPU)
        dump = exc_info.value.forensics
        # Resident pages per tier, by name.
        assert dump.resident_pages["gpu"]["pages_in_use"] == 2
        assert dump.resident_pages["gpu"]["num_pages"] == 2
        assert dump.resident_pages["cpu"]["pages_in_use"] == 0
        assert len(dump.resident_tensors["gpu"]) == 2
        # The pinned set and the waterline trajectory.
        assert dump.pinned == ["layer0.weight"]
        assert [s["step"] for s in dump.waterline_history] == [0, 1]
        assert dump.requested_bytes == 1 * KiB
        # Human-readable, JSON-serializable.
        assert "pinned: layer0.weight" in dump.summary()
        assert "2/2 pages resident" in dump.summary()
        json.dumps(dump.to_dict())
        allocator.close()

    def test_attach_is_idempotent_first_capture_wins(self):
        recorder = ForensicRecorder()
        allocator = build_allocator(forensics=recorder)
        exc = OutOfMemoryError("gpu-pool", 1024, 0)
        recorder.set_context(pinned=["first"])
        recorder.attach(exc, allocator)
        first = exc.forensics
        recorder.set_context(pinned=["second"])
        recorder.attach(exc, allocator)  # no-op: already attached
        assert exc.forensics is first
        assert exc.forensics.pinned == ["first"]
        allocator.close()

    def test_timeline_is_bounded(self):
        recorder = ForensicRecorder(capacity=4)
        allocator = build_allocator(forensics=recorder)
        for step in range(10):
            recorder.sample(step, {"gpu": {"used_bytes": step}})
        dump = recorder.capture(allocator, OutOfMemoryError("gpu-pool", 1024, 0))
        assert [s["step"] for s in dump.waterline_history] == [6, 7, 8, 9]
        allocator.close()

    def test_engine_oom_on_unevictable_allocation(self):
        """An engine-level OOM (nothing evictable) explains itself."""
        from repro.engine.angel import AngelConfig, initialize
        from repro.nn import MixedPrecisionAdam, TinyTransformerLM

        model = TinyTransformerLM(
            vocab_size=16, d_model=16, d_ffn=32, num_heads=2,
            num_layers=1, max_seq=8, seed=0,
        )
        optimizer = MixedPrecisionAdam(model.parameters(), lr=1e-3)
        engine = initialize(model, optimizer, AngelConfig(
            gpu_memory_bytes=1 * MiB, cpu_memory_bytes=8 * MiB,
            ssd_bytes=0, page_bytes=64 * KiB,
        ))
        try:
            # Exhaust the CPU tier directly: nothing manages these
            # tensors, so eviction cannot save the allocation and the
            # pool-level OOM surfaces with forensics attached.
            with pytest.raises(OutOfMemoryError) as exc_info:
                for _ in range(1000):
                    engine.allocator.allocate(
                        (16 * KiB,), "float32", DeviceKind.CPU
                    )
            dump = exc_info.value.forensics
            assert dump is engine.forensics.last_dump
            assert dump.resident_pages["cpu"]["pages_in_use"] > 0
            assert dump.resident_tensors["cpu"]
        finally:
            engine.close()


def make_result(traced=True):
    """A ``python3 -m bench run`` result.json, built by hand."""
    entry = {
        "correct": True, "attempted": 120, "failed": 0, "failed_frac": 0.0,
        "end_to_end": {
            "ops_per_s": {"unit": "1/s", "values": [38.0, 40.0, 43.0],
                          "n": 3, "median": 40.0, "q1": 39.0, "q3": 41.5},
            "peak_rss_mib": {"unit": "MiB", "values": [77.6] * 3,
                             "n": 3, "median": 77.6, "q1": 77.6, "q3": 77.6},
        },
    }
    if traced:
        entry["per_layer"] = {
            "engine.step_p50_ms": {"value": 25.5, "unit": "ms"},
            "pool.oom_per_step": {"value": 0.0, "unit": "count"},
        }
        entry["exact"] = {"engine.gpu_peak_pages": 16}
    return {
        "header": {"nproc": 2, "python": "3.11.7", "numpy": "2.0.0",
                   "git_commit": "abc123", "seconds": 8, "repeats": 3},
        "workloads": {"gpu_tight": entry},
    }


def make_cluster_report(alerts=()):
    """A ``repro cluster --report`` JSON, cut to what the report reads."""
    return {
        "complete": True,
        "rollup": {"per_source": {
            "supervisor": {"role": "supervisor", "tenant": None,
                           "last_step": 1, "skipped_lines": 0},
            "w0i0": {"role": "rank", "tenant": None, "last_step": 4,
                     "skipped_lines": 0},
            "w1i0": {"role": "rank", "tenant": None, "last_step": 4,
                     "skipped_lines": 2},
        }},
        "rank_lanes": ["w0i0", "w1i0"],
        "alerts": list(alerts),
    }


SAMPLE_ALERT = {
    "rule": "waterline", "severity": "WARNING", "step": 2,
    "message": "gpu headroom 6.2% below the 10% margin (OOM near-miss)",
    "evidence": {"tier": "gpu", "headroom_fraction": 0.0625},
}


class TestReport:
    def test_markdown_has_all_sections(self):
        markdown = render_markdown(make_result())
        assert "## Workloads" in markdown
        assert "on 2 CPU(s), Python 3.11.7" in markdown
        assert "### gpu_tight" in markdown
        assert "correct: true, failed_frac: 0.0" in markdown
        assert "| ops_per_s | 40 | [39, 41.5] | 3 | 1/s |" in markdown
        assert "| peak_rss_mib | 77.6 | [77.6, 77.6] | 3 | MiB |" in markdown
        # The traced pass: measured per-layer values, then exact counts.
        assert "| engine.step_p50_ms | 25.5 | ms |" in markdown
        assert "pool.oom_per_step" not in markdown
        assert "| engine.gpu_peak_pages | 16 |" in markdown
        # A bench result is not a cluster run: no watchdog section.
        assert "## Anomalies" not in markdown

    def test_untraced_result_has_no_per_layer_table(self):
        markdown = render_markdown(make_result(traced=False))
        assert "| ops_per_s | 40 |" in markdown
        assert "Per-layer" not in markdown and "Exact counts" not in markdown

    def test_cluster_report_renders_ranks_and_anomalies(self):
        markdown = render_markdown(make_cluster_report(alerts=[SAMPLE_ALERT]))
        assert "## Per-rank timeline" in markdown
        assert "| `w1i0` | rank | - | 4 | 2 |" in markdown
        assert "Rank lanes in the merged trace: `w0i0`, `w1i0`." in markdown
        assert "## Anomalies" in markdown
        assert "`waterline`" in markdown and "OOM near-miss" in markdown
        assert "## Workloads" not in markdown

    def test_empty_payload_degrades_gracefully(self):
        markdown = render_markdown({})
        assert "No watchdog alerts fired." in markdown
        assert "## Per-rank timeline" not in markdown

    def test_write_report_markdown_and_html(self, tmp_path):
        report = make_cluster_report(alerts=[SAMPLE_ALERT])
        written = write_report(report, tmp_path / "run_report.md", html=True)
        assert [p.rsplit(".", 1)[1] for p in written] == ["md", "html"]
        html = (tmp_path / "run_report.html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<table>" in html and "waterline" in html

    def test_render_html_escapes_and_structures(self):
        html = render_html("# T\n\n| a | b |\n|---|---|\n| 1 | <x> |\n\n```\nbar\n```")
        assert "<h1>T</h1>" in html
        assert "<td>&lt;x&gt;</td>" in html
        assert "<pre>" in html and "bar" in html


class TestEngineIntegration:
    def test_tight_engine_fires_alerts_and_samples_timeline(self):
        """A tight GPU pool under ``Watchdog.observe_engine``: the
        waterline and/or cache rules fire, and are counted back into the
        registry the watchdog reads."""
        from repro.engine.angel import AngelConfig
        from repro.fleet.factory import JobFactory, JobWorkload

        telemetry = Telemetry()
        watchdog = Watchdog(telemetry=telemetry)
        factory = JobFactory(JobWorkload(
            vocab_size=32, layers=2, seq_len=16, batch_size=8, lr=2e-3,
        ))
        with factory.engine(AngelConfig(
            gpu_memory_bytes=1 * MiB, cpu_memory_bytes=64 * MiB,
            ssd_bytes=32 * MiB, page_bytes=64 * KiB, telemetry=telemetry,
        )) as engine:
            for step, batch in enumerate(factory.batches(5)):
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
                watchdog.observe_engine(engine, step=step + 1)
            timeline = engine.forensics.capture(
                engine.allocator, OutOfMemoryError("gpu-pool", 1024, 0)
            ).waterline_history
        assert watchdog.alerts, "a 16-page GPU pool must fire >= 1 alert"
        assert len(timeline) == 5
        assert {"gpu", "cpu"} <= set(timeline[0]["tiers"])
        counters = telemetry.dump()["metrics"]["counters"]
        assert sum(value for key, value in counters.items()
                   if key.startswith("watchdog.alerts")) == len(watchdog.alerts)


class TestResilienceIntegration:
    def test_chaos_run_collects_alerts(self, tmp_path):
        from repro.resilience import ChaosConfig, run_chaos

        telemetry = Telemetry()
        config = ChaosConfig(
            steps=8, checkpoint_every=4, seed=3,
            transient_read_rate=0.01, transient_write_rate=0.01,
            gpu_memory_bytes=1 * MiB,
        )
        # A storm-sensitive watchdog: a couple of retries in-window is
        # already a storm, so a modest fault rate reliably trips it.
        watchdog = Watchdog(telemetry=telemetry, rules=[
            RetryStormRule(window=8, threshold=2, critical=500),
        ])
        report = run_chaos(
            config, str(tmp_path), telemetry=telemetry, watchdog=watchdog
        )
        assert report.steps_completed == 8
        # Heavy transient rates retry constantly: the retry storm fires.
        rules = {a.rule for a in report.alerts}
        assert "retry_storm" in rules
        assert telemetry.registry.value(
            "watchdog.alerts", rule="retry_storm", severity="WARNING"
        ) >= 1
