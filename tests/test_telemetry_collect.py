"""Distributed telemetry: per-process export + cluster trace collection."""

import json
import multiprocessing

import pytest

from repro import api
from repro.errors import ConfigurationError
from repro.observe.watchdog import Watchdog
from repro.telemetry import ManualClock
from repro.telemetry.collect import (
    TraceCollector,
    load_stream,
    load_streams,
    merge_rollup,
    parse_metric_key,
    read_jsonl,
    render_top,
    replay_watchdog,
    tail_state,
    tenant_traffic,
)
from repro.telemetry.export import TelemetrySink
from repro.telemetry.registry import Histogram, nearest_rank

TORN_TAIL = '{"kind": "metrics", "step": 4, "counters": {"tru'


def _span_events(trace, lane=None):
    events = [
        e for e in trace["traceEvents"]
        if e.get("ph") == "X" and e.get("cat") not in ("alert", "membership")
    ]
    if lane is None:
        return events
    # build_chrome_trace stores the track (lane) name in ``cat``.
    return [e for e in events if e.get("cat") == lane]


class TestNearestRank:
    def test_empty_and_bounds(self):
        assert nearest_rank([], 99) == 0.0
        assert nearest_rank([5.0], 0) == 5.0
        assert nearest_rank([5.0], 100) == 5.0

    def test_unsorted_input_is_sorted(self):
        samples = [9.0, 1.0, 5.0, 3.0, 7.0]
        assert nearest_rank(samples, 50) == 5.0
        assert nearest_rank(samples, 100) == 9.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            nearest_rank([1.0], 101)
        with pytest.raises(ConfigurationError):
            nearest_rank([1.0], -1)

    def test_histogram_merge_and_percentile(self):
        a = Histogram("h", {})
        a.observe(1.0)
        a.observe(2.0)
        b = Histogram("h", {})
        b.merge(a.samples)
        b.merge([10.0])
        assert sorted(b.samples) == [1.0, 2.0, 10.0]
        assert b.percentile(100) == 10.0
        # merge() copies: mutating the donor doesn't leak into b.
        a.observe(99.0)
        assert 99.0 not in b.samples


class TestSinkFormat:
    def test_meta_is_first_line_and_flushed_at_open(self, tmp_path):
        sink = TelemetrySink(str(tmp_path), "w0i0", role="rank", tenant="ads")
        # Before any step/flush the meta line is already on disk.
        events, skipped = read_jsonl(sink.path)
        assert skipped == 0
        assert events[0]["kind"] == "meta"
        assert events[0]["source"] == "w0i0"
        assert events[0]["role"] == "rank"
        assert events[0]["tenant"] == "ads"
        assert events[0]["version"] == 1
        sink.close()

    def test_spans_metrics_and_alerts_roundtrip(self, tmp_path):
        clock = ManualClock(100.0)
        with TelemetrySink(str(tmp_path), "w0i0", clock=clock) as sink:
            telemetry = sink.telemetry
            with telemetry.span("step0", track="train", step=0):
                clock.advance(0.25)
            telemetry.counter("worker.steps").inc()
            telemetry.gauge("worker.step").set(1)
            telemetry.histogram("step.seconds").observe(0.25)
            sink.step(0)
        events, skipped = read_jsonl(sink.path)
        assert skipped == 0
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "meta"
        span = next(e for e in events if e["kind"] == "span")
        # Span times are absolute perf seconds (tracer epoch added back):
        # the collector places them as they are.
        assert span["start"] == pytest.approx(100.0)
        assert span["end"] == pytest.approx(100.25)
        metrics = next(e for e in events if e["kind"] == "metrics")
        assert metrics["counters"]["worker.steps"] == 1
        assert metrics["gauges"]["worker.step"] == 1
        assert metrics["histograms"]["step.seconds"] == [0.25]

    def test_parse_metric_key(self):
        assert parse_metric_key("a.b") == ("a.b", {})
        assert parse_metric_key("a{t=ads,w=w1}") == \
            ("a", {"t": "ads", "w": "w1"})


class TestCrashTolerance:
    """A SIGKILLed writer leaves a truncated tail the collector skips."""

    def test_torn_tail_skipped_complete_events_kept(self, tmp_path):
        sink = TelemetrySink(str(tmp_path), "w1i0", clock=ManualClock(0.0))
        sink.telemetry.counter("worker.steps").inc(4)
        sink.step(3)
        sink.tear()  # what _maybe_kill does right before SIGKILL
        events, skipped = read_jsonl(sink.path)
        assert skipped == 1
        assert [e["kind"] for e in events] == ["meta", "metrics"]
        assert events[1]["counters"]["worker.steps"] == 4

    def test_stream_without_meta_is_dropped(self, tmp_path):
        directory = tmp_path / "telemetry"
        directory.mkdir()
        (directory / "garbage.jsonl").write_text(TORN_TAIL)
        assert load_stream(str(directory / "garbage.jsonl")) is None
        assert load_streams(str(tmp_path)) == []

    def test_future_schema_version_refused(self, tmp_path):
        directory = tmp_path / "telemetry"
        directory.mkdir()
        path = directory / "w0i0.jsonl"
        path.write_text(json.dumps(
            {"kind": "meta", "version": 99, "source": "w0i0"}
        ) + "\n")
        with pytest.raises(ConfigurationError):
            load_stream(str(path))


def _two_streams(tmp_path):
    """Two rank sinks on one clock, one step span pair each."""
    clock = ManualClock(1000.0)
    for source in ("w0i0", "w1i0"):
        with TelemetrySink(str(tmp_path), source, clock=clock) as sink:
            for name in ("step0", "step1"):
                with sink.telemetry.span(name, track="train"):
                    clock.advance(0.5)
            sink.step(1)


class _WallAhead(ManualClock):
    """A host whose wall clock reads 5000 s ahead of its perf clock."""

    def wall(self) -> float:
        return self.now + 5000.0


def _spawned_span(workdir: str) -> None:
    with TelemetrySink(workdir, "child") as sink:
        with sink.telemetry.span("child", track="train"):
            pass
        sink.step(0)


class TestClockAlignment:
    def test_spawned_child_span_lands_between_parent_spans(self, tmp_path):
        """A real spawned process shares the parent's perf clock: its
        span, written between two of the parent's, merges between them."""
        workdir = str(tmp_path)
        with TelemetrySink(workdir, "parent") as sink:
            with sink.telemetry.span("before", track="train"):
                pass
            child = multiprocessing.get_context("spawn").Process(
                target=_spawned_span, args=(workdir,)
            )
            child.start()
            child.join(timeout=60)
            exitcode = child.exitcode
            child.close()
            assert exitcode == 0
            with sink.telemetry.span("after", track="train"):
                pass
            sink.step(0)
        spans = _span_events(TraceCollector(workdir).collect().trace)
        order = [e["name"] for e in sorted(spans, key=lambda e: e["ts"])]
        assert order == ["before", "child", "after"]

    def test_span_order_preserved_per_lane(self, tmp_path):
        _two_streams(tmp_path)
        collected = TraceCollector(str(tmp_path)).collect()
        for lane in ("w0i0", "w1i0"):
            spans = _span_events(collected.trace, lane)
            names = [e["name"] for e in
                     sorted(spans, key=lambda e: e["ts"])]
            assert names == ["step0", "step1"]

    def test_membership_moves_by_the_first_streams_offset(self, tmp_path):
        clock = _WallAhead(50.0)
        with TelemetrySink(str(tmp_path), "w0i0", clock=clock) as sink:
            with sink.telemetry.span("step0", track="train"):
                clock.advance(1.0)
            sink.step(0)
        # The coordinator logged a generation forming, in wall time, at
        # the moment the span began (perf 50.0).
        (tmp_path / "membership_events.jsonl").write_text(json.dumps(
            {"type": "generation_formed", "generation": 1, "time": 5050.0,
             "members": {}}
        ) + "\n")
        trace = TraceCollector(str(tmp_path)).collect().trace
        formed = next(e for e in trace["traceEvents"]
                      if e.get("cat") == "membership")
        span = next(e for e in _span_events(trace) if e["name"] == "step0")
        assert formed["ts"] == pytest.approx(span["ts"])

    def test_membership_lane_in_trace(self, tmp_path):
        _two_streams(tmp_path)
        (tmp_path / "membership_events.jsonl").write_text(json.dumps(
            {"type": "generation_formed", "generation": 1, "time": 7.0,
             "members": {}}
        ) + "\n")
        collected = TraceCollector(str(tmp_path)).collect()
        members = [e for e in collected.trace["traceEvents"]
                   if e.get("cat") == "membership"]
        assert [e["name"] for e in members] == ["generation_formed"]


class TestRollup:
    def _write(self, workdir, source, tenant, counters, gauges=None,
               hist=None):
        with TelemetrySink(str(workdir), source, role="job",
                           tenant=tenant) as sink:
            for key, value in counters.items():
                sink.telemetry.counter(key).inc(value)
            for key, value in (gauges or {}).items():
                sink.telemetry.gauge(key).set(value)
            for value in hist or []:
                sink.telemetry.histogram("queue.wait").observe(value)
            sink.step(1)

    def test_counters_sum_gauges_max_histograms_merge(self, tmp_path):
        self._write(tmp_path, "job-0001", "ads", {"pages.moved_bytes": 100},
                    gauges={"mem.used": 7}, hist=[1.0, 2.0])
        self._write(tmp_path, "job-0002", "nlp", {"pages.moved_bytes": 50},
                    gauges={"mem.used": 3}, hist=[10.0])
        streams = load_streams(str(tmp_path))
        rollup = merge_rollup(streams)
        assert rollup["counters"]["pages.moved_bytes"] == 150
        assert rollup["gauges"]["mem.used"] == 7
        assert rollup["histograms"]["queue.wait"]["count"] == 3
        assert rollup["histograms"]["queue.wait"]["p99"] == 10.0
        assert rollup["per_source"]["job-0001"]["tenant"] == "ads"
        assert rollup["per_source"]["job-0002"]["last_step"] == 1

    def test_tenant_traffic_totals(self, tmp_path):
        self._write(tmp_path, "job-0001", "ads",
                    {"pages.moved_bytes": 100, "pages.moves": 2,
                     "io.read_bytes": 10})
        self._write(tmp_path, "job-0002", "ads", {"pages.moved_bytes": 40})
        self._write(tmp_path, "job-0003", "nlp", {"io.write_bytes": 5})
        # Untenanted streams (supervisor, ranks) don't pollute totals.
        self._write(tmp_path, "gateway", None, {"pages.moved_bytes": 999})
        traffic = tenant_traffic(load_streams(str(tmp_path)))
        assert set(traffic) == {"ads", "nlp"}
        assert traffic["ads"]["pages_moved_bytes"] == 140
        assert traffic["ads"]["page_moves"] == 2
        assert traffic["ads"]["jobs"] == 2
        assert traffic["nlp"]["io_write_bytes"] == 5

    def test_replay_fires_on_fleet_totals_not_per_stream(self, tmp_path):
        # Each stream's retry counter alone stays below the storm
        # threshold (6); the merged sum crosses it.
        for source in ("w0i0", "w1i0"):
            with TelemetrySink(str(tmp_path), source) as sink:
                counter = sink.telemetry.counter("retry.attempts")
                sink.step(0)
                counter.inc(4)
                sink.step(1)
        streams = load_streams(str(tmp_path))
        alerts = replay_watchdog(streams, Watchdog())
        assert any(a.rule == "retry_storm" for a in alerts)
        # Per-stream replay stays quiet.
        for stream in streams:
            assert replay_watchdog([stream], Watchdog()) == []


class TestTop:
    def test_tail_state_and_render(self, tmp_path):
        with TelemetrySink(str(tmp_path), "w0i0") as sink:
            sink.telemetry.counter("pages.moved_bytes").inc(2048)
            sink.telemetry.gauge(
                "cluster.heartbeat.missed", worker="w1i0"
            ).set(2)
            sink.step(5)
        with TelemetrySink(str(tmp_path), "job-0001", role="job",
                           tenant="ads") as sink:
            sink.telemetry.gauge("quota.pages_in_use", tenant="ads").set(9)
            sink.telemetry.counter("quota.rejections", tenant="ads").inc()
            sink.telemetry.counter("pages.moved_bytes").inc(4096)
            sink.step(3)
        state = tail_state(str(tmp_path))
        assert state["ranks"]["w0i0"]["step"] == 5
        assert state["ranks"]["w1i0"]["missed"] == 2
        assert state["tenants"]["ads"]["pages_in_use"] == 9
        assert state["tenants"]["ads"]["rejections"] == 1
        text = render_top(state)
        assert "w0i0" in text and "ads" in text
        assert "2.00KiB" in text  # rank page traffic formatted

    def test_cli_top_once(self, tmp_path, capsys):
        from repro.cli import main

        with TelemetrySink(str(tmp_path), "w0i0") as sink:
            sink.step(1)
        assert main(["top", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "w0i0" in out
        # Single-frame mode never emits the clear-screen escape.
        assert "\x1b[2J" not in out

    def test_cli_top_rejects_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["top", str(tmp_path / "nope"), "--once"]) == 2


class TestTraceCollectCli:
    def test_collect_writes_artifacts_and_gates(self, tmp_path, capsys):
        from repro.cli import main

        _two_streams(tmp_path)
        code = main([
            "trace", "collect", str(tmp_path), "--min-rank-lanes", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank lanes" in out
        trace = json.loads((tmp_path / "cluster_trace.json").read_text())
        assert len(_span_events(trace, "w0i0")) == 2
        rollup = json.loads(
            (tmp_path / "telemetry_rollup.json").read_text()
        )
        assert set(rollup["per_source"]) == {"w0i0", "w1i0"}

    def test_collect_fails_below_min_lanes(self, tmp_path, capsys):
        from repro.cli import main

        _two_streams(tmp_path)
        assert main([
            "trace", "collect", str(tmp_path), "--min-rank-lanes", "3",
        ]) == 1

    def test_collect_rejects_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "collect", str(tmp_path / "nope")]) == 2

    def test_api_trace_collect(self, tmp_path):
        _two_streams(tmp_path)
        out = tmp_path / "trace.json"
        collected = api.trace_collect(str(tmp_path), out=str(out))
        assert out.exists()
        assert collected.rank_lanes == ["w0i0", "w1i0"]
        assert collected.skipped_lines == 0
