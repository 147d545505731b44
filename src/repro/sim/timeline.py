"""Execution timeline recording and utilization analysis.

The paper's motivating measurements are utilization numbers ("nearly 80% of
the iteration time is idle" with SSD, Section 4.3); the timeline computes
exactly those statistics from a simulated schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import defaultdict

from repro.errors import SimulationError
from repro.telemetry.chrome import (
    TraceSlice,
    build_chrome_trace,
    save_chrome_trace_json,
)

#: Stable Chrome-trace track ordering for the usual stream kinds.
_KIND_ORDER = {"compute": 0, "pcie": 1, "nccl": 2, "cpu": 3, "ssd": 4}


@dataclass(frozen=True)
class Interval:
    """One task occupancy on one stream."""

    task: str
    stream: str
    kind: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """Completed simulation schedule with per-stream statistics."""

    def __init__(self, intervals: list[Interval]):
        for iv in intervals:
            if iv.end < iv.start:
                raise SimulationError(f"interval {iv.task} ends before it starts")
        self._intervals = sorted(intervals, key=lambda iv: (iv.start, iv.stream))

    @property
    def intervals(self) -> list[Interval]:
        return list(self._intervals)

    @property
    def makespan(self) -> float:
        """End time of the last task (0 for an empty timeline)."""
        if not self._intervals:
            return 0.0
        return max(iv.end for iv in self._intervals)

    def busy_time(self, stream: str | None = None, kind: str | None = None) -> float:
        """Total occupied time, optionally filtered by stream or kind.

        Within one stream intervals never overlap, so a straight sum is the
        busy time. Filtering by ``kind`` sums across streams of that kind.
        """
        total = 0.0
        for iv in self._intervals:
            if stream is not None and iv.stream != stream:
                continue
            if kind is not None and iv.kind != kind:
                continue
            total += iv.duration
        return total

    def utilization(self, stream: str | None = None, kind: str | None = None) -> float:
        """Busy fraction of the makespan for the selected streams.

        For a ``kind`` filter spanning N streams the denominator is
        N * makespan, i.e. the mean utilization across those streams.
        """
        span = self.makespan
        if span == 0.0:
            return 0.0
        names = {iv.stream for iv in self._intervals}
        if stream is not None:
            names = {stream}
        elif kind is not None:
            names = {iv.stream for iv in self._intervals if iv.kind == kind}
        if not names:
            return 0.0
        return self.busy_time(stream=stream, kind=kind) / (len(names) * span)

    def idle_fraction(self, kind: str) -> float:
        """Mean idle fraction of streams of ``kind`` — the paper's '80% idle'."""
        return 1.0 - self.utilization(kind=kind)

    def per_stream(self) -> dict[str, float]:
        """Busy time keyed by stream name."""
        busy: dict[str, float] = defaultdict(float)
        for iv in self._intervals:
            busy[iv.stream] += iv.duration
        return dict(busy)

    def critical_stream(self) -> str | None:
        """The stream with the most busy time (the bottleneck resource)."""
        busy = self.per_stream()
        if not busy:
            return None
        return max(busy, key=busy.get)

    def end_of(self, task: str) -> float:
        for iv in self._intervals:
            if iv.task == task:
                return iv.end
        raise SimulationError(f"no task named {task!r} in timeline")

    def to_chrome_trace(self, time_unit: float = 1e-3) -> dict:
        """Chrome trace-event JSON object: one row per stream (GPU compute,
        PCIe H2D/D2H, NCCL, CPU, SSD), one slice per task — how a systems
        engineer eyeballs Algorithm 1's overlap in ``chrome://tracing`` /
        Perfetto.

        ``time_unit`` scales simulated seconds into trace microseconds
        (default: 1 simulated ms -> 1 trace us, keeping long iterations
        navigable). The format itself lives in
        :mod:`repro.telemetry.chrome`, shared with the runtime span tracer
        so simulated and functional traces render identically.
        """
        streams = sorted(
            {(iv.stream, iv.kind) for iv in self._intervals},
            key=lambda pair: (_KIND_ORDER.get(pair[1], 99), pair[0]),
        )
        slices = [
            TraceSlice(
                name=iv.task,
                track=iv.stream,
                category=iv.kind,
                start_us=iv.start / time_unit,
                dur_us=iv.duration / time_unit,
            )
            for iv in self._intervals
        ]
        return build_chrome_trace(
            slices,
            track_order=[stream for stream, _ in streams],
            other_data={"makespan_seconds": self.makespan},
        )

    def save_chrome_trace(self, path: str, time_unit: float = 1e-3) -> None:
        """Write the Chrome trace JSON to ``path``."""
        save_chrome_trace_json(self.to_chrome_trace(time_unit), path)
