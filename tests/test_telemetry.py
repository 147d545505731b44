"""Telemetry subsystem: clocks, registry, spans, facade and integrations."""

import json
import threading

import pytest

from repro.errors import ConfigurationError, RetryExhaustedError, TransientIOError
from repro.telemetry import (
    NULL_INSTRUMENT,
    NULL_SPAN,
    NULL_TELEMETRY,
    Clock,
    ManualClock,
    MetricsRegistry,
    SpanTracer,
    Telemetry,
)


def named_tracks(trace: dict) -> list[str]:
    """The track names a trace viewer displays: the ``"ph": "M"`` rows."""
    return [e["args"]["name"] for e in trace["traceEvents"] if e.get("ph") == "M"]


class TestClock:
    def test_real_clock_facets_advance(self):
        clock = Clock()
        assert clock.perf() <= clock.perf()
        assert clock.monotonic() <= clock.monotonic()
        assert clock.wall() > 0

    def test_manual_clock_only_moves_when_told(self):
        clock = ManualClock()
        assert clock.perf() == clock.monotonic() == clock.wall() == 0.0
        clock.advance(2.5)
        assert clock.perf() == 2.5
        assert clock.monotonic() == 2.5
        assert clock.wall() == 2.5

    def test_manual_clock_sleep_advances_and_records(self):
        clock = ManualClock(start=10.0)
        clock.sleep(0.25)
        clock.sleep(0.0)
        assert clock.now == 10.25
        assert clock.sleeps == [0.25, 0.0]

    def test_manual_clock_rejects_negative_advance(self):
        with pytest.raises(ConfigurationError):
            ManualClock().advance(-1.0)


class TestMetricsRegistry:
    def test_counter_get_or_create_by_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("pages.moves", src="cpu", dst="gpu")
        b = registry.counter("pages.moves", dst="gpu", src="cpu")
        assert a is b  # label order is irrelevant
        a.inc()
        a.inc(3)
        assert registry.value("pages.moves", src="cpu", dst="gpu") == 4

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("x").inc(-1)

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(ConfigurationError):
            registry.gauge("metric")

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("cache.bytes")
        gauge.set(100)
        gauge.add(-30)
        assert gauge.value == 70

    def test_histogram_summary_and_percentile(self):
        histogram = MetricsRegistry().histogram("lat")
        for v in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(v)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 4.0
        with pytest.raises(ConfigurationError):
            histogram.percentile(101)

    def test_dump_partitions_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(0.5)
        dump = registry.dump()
        assert dump["counters"] == {"c": 2}
        assert dump["gauges"] == {"g": 7}
        assert dump["histograms"]["h"]["count"] == 1

    def test_unregistered_value_is_zero(self):
        assert MetricsRegistry().value("never.recorded") == 0

    def test_null_instrument_summary_matches_empty_histogram(self):
        # Report code reads the same keys from either, so the shapes must
        # never drift apart.
        empty = MetricsRegistry().histogram("h").summary()
        assert NULL_INSTRUMENT.summary() == empty
        assert empty == {"count": 0, "sum": 0.0, "mean": 0.0,
                         "min": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}


class TestConcurrentRecording:
    """Threads hammer shared instruments while dump() snapshots them."""

    THREADS = 8
    ITERATIONS = 500

    def _hammer(self, registry, record):
        barrier = threading.Barrier(self.THREADS + 1)

        def worker():
            barrier.wait()
            for _ in range(self.ITERATIONS):
                record()

        threads = [
            threading.Thread(target=worker) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        # Concurrent dumps must neither crash nor corrupt the totals.
        for _ in range(50):
            registry.dump()
        for thread in threads:
            thread.join()

    def test_counter_total_is_exact_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        self._hammer(registry, lambda: counter.inc(3))
        assert counter.value == 3 * self.THREADS * self.ITERATIONS

    def test_gauge_add_is_exact_under_contention(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("pages")
        self._hammer(registry, lambda: gauge.add(2))
        assert gauge.value == 2 * self.THREADS * self.ITERATIONS

    def test_histogram_count_and_sum_are_exact_under_contention(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        self._hammer(registry, lambda: histogram.observe(0.5))
        expected = self.THREADS * self.ITERATIONS
        assert histogram.count == expected
        assert histogram.sum == pytest.approx(0.5 * expected)
        summary = histogram.summary()
        assert summary["count"] == expected
        assert summary["min"] == summary["max"] == 0.5

    def test_get_or_create_race_yields_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(self.THREADS)

        def worker():
            barrier.wait()
            seen.append(registry.counter("shared", tier="gpu"))

        threads = [
            threading.Thread(target=worker) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(instrument is seen[0] for instrument in seen)


class TestSpanTracer:
    def test_nested_spans_durations_and_depth(self):
        clock = ManualClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("outer", track="train"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.5)
            clock.advance(0.25)
        inner, outer = tracer.records
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.track == "train"  # inherited from the enclosing span
        assert inner.depth == 1 and outer.depth == 0
        assert inner.duration == pytest.approx(0.5)
        assert outer.duration == pytest.approx(1.75)

    def test_span_track_defaults_to_thread_name(self):
        tracer = SpanTracer(clock=ManualClock())
        with tracer.span("work"):
            pass
        assert tracer.records[0].track == threading.current_thread().name

    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = SpanTracer(enabled=False)
        assert tracer.span("a") is tracer.span("b") is NULL_SPAN
        with tracer.span("a"):
            pass
        tracer.instant("marker")
        assert tracer.records == []

    def test_instant_records_zero_duration(self):
        clock = ManualClock()
        tracer = SpanTracer(clock=clock)
        clock.advance(3.0)
        tracer.instant("retry", track="faults", error="TransientIOError")
        record = tracer.records[0]
        assert record.duration == 0.0
        assert record.start == pytest.approx(3.0)
        assert record.args == {"error": "TransientIOError"}

    def test_breakdown_aggregates_by_name(self):
        clock = ManualClock()
        tracer = SpanTracer(clock=clock)
        for seconds in (1.0, 3.0):
            with tracer.span("step", track="train"):
                clock.advance(seconds)
        stats = tracer.breakdown()["step"]
        assert stats["count"] == 2
        assert stats["total_seconds"] == pytest.approx(4.0)
        assert stats["max_seconds"] == pytest.approx(3.0)

    def test_reset_clears_and_rebases_epoch(self):
        clock = ManualClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("old"):
            clock.advance(1.0)
        tracer.reset()
        assert tracer.records == []
        with tracer.span("new"):
            clock.advance(0.5)
        assert tracer.records[0].start == pytest.approx(0.0)

    def test_chrome_export_names_tracks(self):
        clock = ManualClock()
        tracer = SpanTracer(clock=clock)
        for track in ("train", "updater", "pcie", "scheduler"):
            with tracer.span(f"work.{track}", track=track):
                clock.advance(0.001)
        trace = tracer.to_chrome_trace(
            track_order=["train", "updater", "pcie", "scheduler"]
        )
        assert named_tracks(trace) == ["train", "updater", "pcie", "scheduler"]
        slices = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert len(slices) == 4
        assert all(e["dur"] > 0 for e in slices)
        json.dumps(trace)  # must be serializable as-is

    def test_spans_record_across_threads(self):
        tracer = SpanTracer(clock=Clock())

        def worker():
            with tracer.span("thread.work"):
                pass

        thread = threading.Thread(target=worker, name="sidecar")
        with tracer.span("main.work"):
            thread.start()
            thread.join()
        tracks = {r.name: r.track for r in tracer.records}
        assert tracks["thread.work"] == "sidecar"
        assert tracks["main.work"] == threading.current_thread().name


class TestTelemetryFacade:
    def test_disabled_facade_is_free(self):
        telemetry = Telemetry(enabled=False)
        assert telemetry.span("x") is NULL_SPAN
        assert telemetry.counter("c") is NULL_INSTRUMENT
        assert telemetry.gauge("g") is NULL_INSTRUMENT
        assert telemetry.histogram("h") is NULL_INSTRUMENT
        telemetry.record_page_move("cpu", "gpu", 4096)
        telemetry.record_collective("all_gather", 1)
        dump = telemetry.dump()
        assert dump["metrics"]["counters"] == {}
        assert dump["spans"] == {}

    def test_null_telemetry_is_shared_and_disabled(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.span("x") is NULL_SPAN

    def test_domain_vocabulary_lands_in_registry(self):
        telemetry = Telemetry(clock=ManualClock())
        telemetry.record_page_move("gpu", "cpu", 4096)
        telemetry.record_page_move("gpu", "cpu", 4096)
        telemetry.record_collective("all_reduce", 640)
        counters = telemetry.dump()["metrics"]["counters"]
        assert counters["pages.moved_bytes{dst=cpu,src=gpu}"] == 8192
        assert counters["pages.moves{dst=cpu,src=gpu}"] == 2
        assert counters["collective.all_reduce_bytes"] == 640

    def test_dump_is_unified(self):
        clock = ManualClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.span("step", track="train"):
            clock.advance(0.1)
        telemetry.counter("engine.steps").inc()
        dump = telemetry.dump()
        assert dump["metrics"]["counters"]["engine.steps"] == 1
        assert dump["spans"]["step"]["count"] == 1


class TestFaultCountersCompat:
    def test_shares_registry_with_telemetry(self, tmp_path):
        """A trainer given the run's registry counts ``faults.*`` there."""
        from repro.resilience import ResilientTrainer
        from repro.resilience.trainer import FAULT_COUNTERS

        telemetry = Telemetry(clock=ManualClock())
        trainer = ResilientTrainer(lambda use_ssd=True: None, str(tmp_path),
                                   registry=telemetry.registry)
        trainer._tier_died()
        dump = telemetry.dump()["metrics"]["counters"]
        assert {f"faults.{name}" for name in FAULT_COUNTERS} <= set(dump)
        assert dump["faults.tier_deaths"] == 1
        assert dump["faults.recoveries"] == 0


class TestRetryWithManualClock:
    def _failing(self, times):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= times:
                raise TransientIOError("flaky")
            return "ok"

        return fn, calls

    def test_backoff_schedule_is_deterministic(self):
        from repro.resilience.retry import RetryPolicy

        def run_once():
            clock = ManualClock()
            policy = RetryPolicy(
                max_attempts=4, base_delay=0.1, multiplier=2.0,
                max_delay=10.0, jitter=0.5, seed=7, clock=clock,
            )
            fn, _ = self._failing(3)
            assert policy.run(fn) == "ok"
            return list(clock.sleeps)

        first, second = run_once(), run_once()
        assert first == second  # seeded jitter: bit-reproducible
        assert len(first) == 3
        # Exponential envelope: base * 2**(n-1) <= delay <= 1.5x that.
        for n, delay in enumerate(first, start=1):
            raw = 0.1 * 2.0 ** (n - 1)
            assert raw <= delay <= raw * 1.5

    def test_deadline_enforced_on_manual_time(self):
        from repro.resilience.retry import RetryPolicy

        clock = ManualClock()
        policy = RetryPolicy(
            max_attempts=100, base_delay=1.0, multiplier=1.0, jitter=0.0,
            max_delay=1.0, deadline=3.5, seed=0, clock=clock,
        )
        fn, calls = self._failing(1000)
        with pytest.raises(RetryExhaustedError):
            policy.run(fn)
        # Sleeps of 1s each: attempts at t=0,1,2,3; the next would land
        # past the 3.5s deadline, so exactly 3 backoffs happened.
        assert clock.sleeps == [1.0, 1.0, 1.0]
        assert calls["n"] == 4

    def test_retry_metrics_flow_through_telemetry(self):
        from repro.resilience.retry import RetryPolicy

        clock = ManualClock()
        telemetry = Telemetry(clock=clock)
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.01, jitter=0.0, seed=0,
            clock=clock, telemetry=telemetry,
        )
        fn, _ = self._failing(2)
        assert policy.run(fn) == "ok"
        dump = telemetry.dump()["metrics"]
        assert dump["counters"]["retry.attempts"] == 2
        assert dump["histograms"]["retry.backoff_seconds"]["count"] == 2


class TestEngineIntegration:
    def _engine(self, telemetry):
        from repro.engine.angel import AngelConfig, initialize
        from repro.nn import MixedPrecisionAdam, TinyTransformerLM
        from repro.units import KiB, MiB

        model = TinyTransformerLM(
            vocab_size=16, d_model=16, d_ffn=32, num_heads=2, num_layers=2,
            max_seq=8, seed=0,
        )
        optimizer = MixedPrecisionAdam(model.parameters(), lr=1e-3)
        config = AngelConfig(
            gpu_memory_bytes=1 * MiB, cpu_memory_bytes=64 * MiB,
            page_bytes=16 * KiB, telemetry=telemetry,
        )
        return initialize(model, optimizer, config)

    def _run_steps(self, engine, steps=2):
        from repro.nn import lm_synthetic_batches

        for batch in lm_synthetic_batches(16, 8, 4, steps, seed=1):
            loss = engine(batch)
            engine.backward(loss)
            engine.step()

    def test_engine_records_traffic_and_spans(self):
        telemetry = Telemetry()
        engine = self._engine(telemetry)
        try:
            self._run_steps(engine)
        finally:
            engine.close()
        counters = telemetry.dump()["metrics"]["counters"]
        edges = {k: v for k, v in counters.items()
                 if k.startswith("pages.moved_bytes")}
        assert edges and all(v > 0 for v in edges.values())
        assert counters["engine.steps"] == 2
        names = {r.name for r in telemetry.tracer.records}
        assert any(n.startswith("fwd/") for n in names)
        assert any(n.startswith("bwd/") for n in names)
        sweeps = [r for r in telemetry.tracer.records
                  if r.name.startswith("update_sweep/")]
        assert sweeps and all(r.track == "updater" for r in sweeps)
        assert {r.track for r in telemetry.tracer.records
                if r.name.startswith(("fwd/", "bwd/"))} == {"train"}
        tracks = named_tracks(telemetry.tracer.to_chrome_trace())
        assert "updater" in tracks and "train" in tracks

    def test_engine_without_telemetry_records_nothing(self):
        engine = self._engine(None)
        try:
            assert engine.telemetry is NULL_TELEMETRY
            assert engine.telemetry.span("probe") is NULL_SPAN
            self._run_steps(engine, steps=1)
        finally:
            engine.close()
        assert NULL_TELEMETRY.registry.dump()["counters"] == {}
        assert NULL_TELEMETRY.tracer.records == []


class TestLockFreeThreadBoundary:
    def test_sweep_spans_land_on_updater_track(self):
        from repro.engine.angel import AngelConfig, initialize
        from repro.nn import MixedPrecisionAdam, TinyTransformerLM, lm_synthetic_batches
        from repro.units import KiB, MiB

        model = TinyTransformerLM(
            vocab_size=16, d_model=16, d_ffn=32, num_heads=2, num_layers=2,
            max_seq=8, seed=0,
        )
        telemetry = Telemetry()
        config = AngelConfig(
            gpu_memory_bytes=1 * MiB, cpu_memory_bytes=64 * MiB,
            page_bytes=16 * KiB, lock_free=True, update_interval=2,
            telemetry=telemetry,
        )
        sweeps = 0
        with initialize(
            model, MixedPrecisionAdam(model.parameters(), lr=1e-3), config
        ) as engine, telemetry.span("train_loop", track="train"):
            for batch in lm_synthetic_batches(16, 8, 4, 4, seed=1):
                engine.backward(engine(batch))
                sweeps += engine.step()
        assert sweeps == 2
        records = telemetry.tracer.records
        sweep_records = [r for r in records
                         if r.name.startswith("update_sweep/")]
        assert len(sweep_records) == sweeps
        assert all(r.track == "updater" for r in sweep_records)
        train_records = [r for r in records if r.name == "train_loop"]
        assert train_records[0].track == "train"
        # The sweep histogram observed every sweep.
        summary = telemetry.registry.histogram("updater.sweep_seconds").summary()
        assert summary["count"] == sweeps
        # The training and updater tracks coexist in one Chrome export.
        tracks = named_tracks(telemetry.tracer.to_chrome_trace())
        assert "updater" in tracks and "train" in tracks


class TestSharedChromeSerialization:
    def test_sim_and_runtime_exports_share_format(self):
        from repro.sim import Simulator

        sim = Simulator()
        sim.add_task("fwd", "compute", 1.0)
        sim_trace = sim.run().to_chrome_trace()

        clock = ManualClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("fwd", track="compute"):
            clock.advance(1.0)
        span_trace = tracer.to_chrome_trace()

        for trace in (sim_trace, span_trace):
            assert trace["displayTimeUnit"] == "ms"
            meta = [e for e in trace["traceEvents"]
                    if e.get("cat") == "__metadata"]
            assert meta and all(e["ph"] == "M" for e in meta)
        assert named_tracks(sim_trace)[0] == "compute"
        assert named_tracks(span_trace) == ["compute"]
