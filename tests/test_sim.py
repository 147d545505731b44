"""Discrete-event simulator: stream ordering, dependencies, timelines."""

import pytest

from repro.errors import SimulationError
from repro.sim import Interval, Simulator, Timeline


class TestSimulatorBasics:
    def test_single_task(self):
        sim = Simulator()
        sim.add_task("a", sim.stream("s"), 2.0)
        assert sim.run().makespan == 2.0

    def test_stream_serializes_in_submission_order(self):
        sim = Simulator()
        s = sim.stream("s")
        sim.add_task("a", s, 1.0)
        sim.add_task("b", s, 1.0)
        timeline = sim.run()
        assert timeline.end_of("a") == 1.0
        assert timeline.end_of("b") == 2.0

    def test_independent_streams_overlap(self):
        sim = Simulator()
        sim.add_task("a", sim.stream("s1"), 3.0)
        sim.add_task("b", sim.stream("s2"), 2.0)
        assert sim.run().makespan == 3.0

    def test_cross_stream_dependency(self):
        sim = Simulator()
        a = sim.add_task("a", sim.stream("s1"), 3.0)
        sim.add_task("b", sim.stream("s2"), 1.0, deps=[a])
        timeline = sim.run()
        assert timeline.end_of("b") == 4.0

    def test_diamond_dependency(self):
        sim = Simulator()
        a = sim.add_task("a", sim.stream("s1"), 1.0)
        b = sim.add_task("b", sim.stream("s2"), 2.0, deps=[a])
        c = sim.add_task("c", sim.stream("s3"), 3.0, deps=[a])
        sim.add_task("d", sim.stream("s4"), 1.0, deps=[b, c])
        timeline = sim.run()
        assert timeline.end_of("d") == 5.0  # 1 + max(2, 3) + 1

    def test_zero_duration_task(self):
        sim = Simulator()
        a = sim.add_task("a", sim.stream("s"), 0.0)
        sim.add_task("b", sim.stream("s"), 1.0, deps=[a])
        assert sim.run().makespan == 1.0

    def test_duplicate_task_name_rejected(self):
        sim = Simulator()
        sim.add_task("a", sim.stream("s"), 1.0)
        with pytest.raises(SimulationError):
            sim.add_task("a", sim.stream("s"), 1.0)

    def test_negative_duration_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.add_task("a", sim.stream("s"), -1.0)

    def test_foreign_dependency_rejected(self):
        sim1, sim2 = Simulator(), Simulator()
        a = sim1.add_task("a", sim1.stream("s"), 1.0)
        with pytest.raises(SimulationError):
            sim2.add_task("b", sim2.stream("s"), 1.0, deps=[a])

    def test_stream_kind_conflict_rejected(self):
        sim = Simulator()
        sim.stream("s", "compute")
        with pytest.raises(SimulationError):
            sim.stream("s", "pcie")

    def test_stream_kind_reuse_generic_ok(self):
        sim = Simulator()
        first = sim.stream("s", "compute")
        assert sim.stream("s") is first

    def test_empty_simulation(self):
        assert Simulator().run().makespan == 0.0


class TestOverlapSemantics:
    def test_prefetch_pattern_hides_transfer(self):
        """Move(i+1) issued during compute(i) — the classic overlap."""
        sim = Simulator()
        pcie, gpu = sim.stream("pcie", "pcie"), sim.stream("gpu", "compute")
        move0 = sim.add_task("m0", pcie, 1.0)
        c0 = sim.add_task("c0", gpu, 5.0, deps=[move0])
        move1 = sim.add_task("m1", pcie, 1.0)  # overlaps with c0
        sim.add_task("c1", gpu, 5.0, deps=[move1])
        timeline = sim.run()
        assert timeline.makespan == 11.0  # 1 + 5 + 5: second move hidden

    def test_serialized_pattern_pays_transfer(self):
        """Move(i+1) issued only after compute(i) — no overlap."""
        sim = Simulator()
        pcie, gpu = sim.stream("pcie", "pcie"), sim.stream("gpu", "compute")
        move0 = sim.add_task("m0", pcie, 1.0)
        c0 = sim.add_task("c0", gpu, 5.0, deps=[move0])
        move1 = sim.add_task("m1", pcie, 1.0, deps=[c0])
        sim.add_task("c1", gpu, 5.0, deps=[move1])
        assert sim.run().makespan == 12.0


class TestTimeline:
    def _timeline(self):
        sim = Simulator()
        gpu = sim.stream("gpu", "compute")
        pcie = sim.stream("pcie", "pcie")
        m = sim.add_task("m", pcie, 2.0)
        sim.add_task("c", gpu, 6.0, deps=[m])
        return sim.run()

    def test_busy_time_by_stream(self):
        timeline = self._timeline()
        assert timeline.busy_time(stream="gpu") == 6.0
        assert timeline.busy_time(kind="pcie") == 2.0

    def test_utilization(self):
        timeline = self._timeline()
        assert timeline.utilization(stream="gpu") == pytest.approx(6 / 8)
        assert timeline.idle_fraction("pcie") == pytest.approx(1 - 2 / 8)

    def test_critical_stream(self):
        assert self._timeline().critical_stream() == "gpu"

    def test_end_of_unknown_task(self):
        with pytest.raises(SimulationError):
            self._timeline().end_of("missing")

    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            Timeline([Interval("t", "s", "k", start=2.0, end=1.0)])

    def test_per_stream_accounting(self):
        busy = self._timeline().per_stream()
        assert busy == {"pcie": 2.0, "gpu": 6.0}

    def test_empty_timeline(self):
        t = Timeline([])
        assert t.makespan == 0.0
        assert t.utilization() == 0.0
        assert t.critical_stream() is None


class TestChromeTraceExport:
    def _timeline(self):
        from repro.sim import Simulator

        sim = Simulator()
        gpu = sim.stream("gpu", "compute")
        pcie = sim.stream("h2d", "pcie")
        m = sim.add_task("move", pcie, 0.5)
        sim.add_task("fwd", gpu, 2.0, deps=[m])
        return sim.run()

    def test_trace_structure(self):
        trace = self._timeline().to_chrome_trace()
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        assert names == {"move", "fwd"}
        assert trace["otherData"]["makespan_seconds"] == 2.5
        # Distinct threads per stream; metadata rows name them.
        tids = {e["tid"] for e in slices}
        assert len(tids) == 2

    def test_time_scaling(self):
        trace = self._timeline().to_chrome_trace(time_unit=1e-3)
        fwd = next(e for e in trace["traceEvents"]
                   if e.get("name") == "fwd" and e["ph"] == "X")
        assert fwd["ts"] == 500.0  # 0.5s at 1ms->1us
        assert fwd["dur"] == 2000.0

    def test_save_roundtrip(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        self._timeline().save_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded
