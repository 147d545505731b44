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
    StalenessLagRule,
    StepSnapshot,
    TierBandwidthRule,
    Watchdog,
    WatchdogConfig,
    WaterlineRule,
    WorkerLivenessRule,
    alert_from_dict,
    render_html,
    render_markdown,
    write_report,
)
from repro.telemetry import Telemetry
from repro.units import GiB, KiB, MiB


def snap(step, counters=None, gauges=None, memory=None):
    return StepSnapshot(
        step=step, counters=counters or {}, gauges=gauges or {},
        memory=memory or {},
    )


class TestAlerts:
    def test_severity_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.CRITICAL

    def test_round_trip_through_dict(self):
        alert = Alert(
            rule="waterline", severity=Severity.CRITICAL,
            message="gpu nearly full", step=7, evidence={"tier": "gpu"},
        )
        assert alert_from_dict(alert.to_dict()) == alert


class TestRules:
    def test_staleness_lag_from_gauge(self):
        rule = StalenessLagRule(interval=4, tolerance=1.5)
        assert rule.evaluate(snap(1, gauges={"updater.lag_iterations": 5})) == []
        fired = rule.evaluate(snap(2, gauges={"updater.lag_iterations": 7}))
        assert fired and fired[0].severity is Severity.WARNING
        assert fired[0].evidence["lag_iterations"] == 7.0

    def test_staleness_lag_escalates_to_critical(self):
        rule = StalenessLagRule(interval=1, tolerance=1.5)
        fired = rule.evaluate(snap(1, gauges={"updater.lag_iterations": 4}))
        assert fired and fired[0].severity is Severity.CRITICAL

    def test_staleness_lag_falls_back_to_counters(self):
        rule = StalenessLagRule(interval=1, tolerance=1.0)
        fired = rule.evaluate(
            snap(5, counters={"engine.steps": 6, "engine.update_sweeps": 2})
        )
        assert fired and "lags 4 iterations" in fired[0].message

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
            WatchdogConfig(update_interval=0)
        with pytest.raises(ConfigurationError):
            WatchdogConfig(waterline_margin=0.01, waterline_critical=0.05)


class TestWatchdog:
    def test_observe_step_publishes_everywhere(self):
        telemetry = Telemetry()
        watchdog = Watchdog(telemetry=telemetry)
        telemetry.gauge("updater.lag_iterations").set(10)
        fired = watchdog.observe_step(step=1)
        assert [a.rule for a in fired] == ["staleness_lag"]
        assert watchdog.alerts == fired
        assert watchdog.worst_severity is Severity.CRITICAL
        # Counted in the registry it watches...
        assert telemetry.registry.value(
            "watchdog.alerts", rule="staleness_lag", severity="CRITICAL"
        ) == 1
        # ...and serializable for the BENCH payload.
        assert watchdog.payload()[0]["rule"] == "staleness_lag"

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
        assert watchdog.worst_severity is None


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
        for step in range(10):
            recorder.sample(step, {"gpu": {"used_bytes": step}})
        assert [s.step for s in recorder.timeline] == [6, 7, 8, 9]
        assert recorder.timeline_payload()[0]["tiers"]["gpu"]["used_bytes"] == 6

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


def make_bench(steps_per_second=10.0, alerts=(), timeline=()):
    return {
        "benchmark": "telemetry_profile",
        "train": {
            "steps": 4, "elapsed_seconds": 4 / steps_per_second,
            "steps_per_second": steps_per_second, "final_loss": 3.2,
        },
        "simulated": {
            "model": "gpt3-13b", "samples_per_second": 2.0,
            "iteration_time_seconds": 2.0,
        },
        "per_tier_edge_bytes": {
            "pages.moved_bytes{dst=gpu,src=cpu}": 4 * MiB,
            "pages.moved_bytes{dst=cpu,src=gpu}": 3 * MiB,
        },
        "memory_timeline": list(timeline),
        "alerts": list(alerts),
        "telemetry": {
            "metrics": {
                "counters": {
                    "pages.moves{dst=gpu,src=cpu}": 64,
                    "pages.moves{dst=cpu,src=gpu}": 48,
                },
                "gauges": {}, "histograms": {},
            },
            "spans": {
                "fwd": {"count": 4, "total_seconds": 0.2, "max_seconds": 0.06},
            },
        },
    }


SAMPLE_TIMELINE = [
    {"step": step, "tiers": {
        "gpu": {"used_bytes": used * KiB, "free_bytes": (64 - used) * KiB},
        "cpu": {"used_bytes": 128 * KiB, "free_bytes": 128 * KiB},
    }}
    for step, used in enumerate([16, 48, 60])
]

SAMPLE_ALERT = {
    "rule": "waterline", "severity": "WARNING", "step": 2,
    "message": "gpu headroom 6.2% below the 10% margin (OOM near-miss)",
    "evidence": {"tier": "gpu", "headroom_fraction": 0.0625},
}


class TestReport:
    def test_markdown_has_all_sections(self):
        markdown = render_markdown(make_bench(
            alerts=[SAMPLE_ALERT], timeline=SAMPLE_TIMELINE
        ))
        assert "## Summary" in markdown
        assert "## Memory waterfall" in markdown
        assert "### gpu (capacity 64.0 KiB)" in markdown
        assert "## Tier traffic" in markdown
        assert "`pages.moved_bytes{dst=gpu,src=cpu}` | 4.00 MiB | 64" in markdown
        assert "## Anomalies" in markdown
        assert "`waterline`" in markdown and "OOM near-miss" in markdown
        assert "## Span breakdown" in markdown

    def test_empty_payload_degrades_gracefully(self):
        markdown = render_markdown({"benchmark": "x"})
        assert "No watchdog alerts fired." in markdown
        assert "_No residency timeline in this payload._" in markdown
        assert "_No page traffic recorded._" in markdown

    def test_write_report_markdown_and_html(self, tmp_path):
        bench = make_bench(alerts=[SAMPLE_ALERT], timeline=SAMPLE_TIMELINE)
        written = write_report(bench, tmp_path / "run_report.md", html=True)
        assert [p.rsplit(".", 1)[1] for p in written] == ["md", "html"]
        html = (tmp_path / "run_report.html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<table>" in html and "waterline" in html

    def test_render_html_escapes_and_structures(self):
        html = render_html("# T\n\n| a | b |\n|---|---|\n| 1 | <x> |\n\n```\nbar\n```")
        assert "<h1>T</h1>" in html
        assert "<td>&lt;x&gt;</td>" in html
        assert "<pre>" in html and "bar" in html

    def test_payload_keys_the_profile_no_longer_writes_are_ignored(self):
        """A BENCH_telemetry.json written before the comparison re-runs
        were removed still renders; its stale sections are not shown."""
        bench = make_bench()
        bench["overhead"] = {"overhead_fraction": -0.028}
        bench["page_throughput"] = {"edges": {"cpu->gpu": {"copy_calls": 1}}}
        bench["pipeline"] = {"enabled": False, "stall_seconds": 0.0}
        markdown = render_markdown(bench)
        assert "## Summary" in markdown
        assert "overhead" not in markdown
        assert "## Pipelined runtime" not in markdown


class TestProfileIntegration:
    def test_tight_profile_fires_alerts_and_samples_timeline(self):
        from repro.observe.report import render_markdown
        from repro.telemetry.bench import ProfileConfig, run_profile

        report, telemetry = run_profile(ProfileConfig(steps=5))
        # The deliberately tight GPU pool (16 pages) makes the watchdog's
        # job easy: the waterline and/or cache rules must fire.
        assert report["alerts"], "tight profile must fire >= 1 alert"
        assert report["memory_timeline"]
        assert {"gpu", "cpu"} <= set(report["memory_timeline"][0]["tiers"])
        markdown = render_markdown(report)
        assert "### gpu" in markdown  # waterfall rendered per tier
        assert "| `pages.moved_bytes{" in markdown  # traffic table
        assert "## Anomalies" in markdown
        assert "No watchdog alerts fired." not in markdown
        # Fired alerts are also counted back into the registry.
        counters = report["telemetry"]["metrics"]["counters"]
        assert any(k.startswith("watchdog.alerts") for k in counters)

    def test_pipelined_profile_reports_its_own_overlap(self):
        from repro.observe.report import render_markdown
        from repro.telemetry.bench import ProfileConfig, run_profile

        report, _ = run_profile(ProfileConfig(
            steps=4, pipeline=True, watch=False
        ))
        pipeline = report["pipeline"]
        assert pipeline["enabled"]
        markdown = render_markdown(report)
        assert "## Pipelined runtime" in markdown
        assert (f"{pipeline['prefetch']['abandoned']} abandoned to the "
                f"demand path") in markdown
        assert (f"{pipeline['writeback']['flushed']} state flushes"
                in markdown)

        sync, _ = run_profile(ProfileConfig(steps=2, watch=False))
        assert not sync["pipeline"]["enabled"]
        assert "## Pipelined runtime" not in render_markdown(sync)

    def test_watch_off_keeps_payload_shape(self):
        from repro.telemetry.bench import ProfileConfig, run_profile

        report, _ = run_profile(ProfileConfig(steps=2, watch=False))
        assert report["alerts"] == []
        assert report["memory_timeline"]  # engine samples regardless


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
        watchdog = Watchdog(telemetry=telemetry, config=WatchdogConfig(
            retry_window=8, retry_storm_threshold=2, retry_storm_critical=500,
        ))
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


class TestVerificationSection:
    def _verification(self, ok=True):
        violations = [] if ok else [{
            "invariant": "use-before-fetch", "trigger_id": 7,
            "layer_index": 2, "page_id": 1, "tensor_id": -1,
            "message": "all-gather of layer 2 before page(s) [1] arrived",
            "provenance": [],
        }]
        return {
            "ok": ok, "model": "gpt3-13b",
            "invariants": [
                {"name": "use-before-fetch", "violations": len(violations)},
                {"name": "oom-at-trigger", "violations": 0},
            ],
            "violations": violations,
            "stats": {
                "peak_live_bytes": 2.0 * GiB,
                "gpu_budget_bytes": 4 * GiB,
            },
        }

    def test_verified_schedule_renders_verdict(self):
        bench = make_bench()
        bench["verification"] = self._verification(ok=True)
        markdown = render_markdown(bench)
        assert "## Verification" in markdown
        assert "schedule verified: 2 invariants, 0 violations" in markdown
        assert "`use-before-fetch`" in markdown
        assert "2.00 GiB" in markdown and "50.0%" in markdown

    def test_violations_render_as_counterexample_table(self):
        bench = make_bench()
        bench["verification"] = self._verification(ok=False)
        markdown = render_markdown(bench)
        assert "**schedule INVALID**: 1 violation(s)" in markdown
        assert "| `use-before-fetch` | 7 | 2 | 1 |" in markdown

    def test_payload_without_verification_degrades(self):
        markdown = render_markdown({"benchmark": "x"})
        assert "_No schedule verification in this payload._" in markdown
