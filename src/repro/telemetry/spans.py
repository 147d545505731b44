"""Hierarchical runtime span tracing.

``tracer.span("fwd/layer3")`` brackets a region of real execution; nested
spans form a hierarchy per thread, and every thread (the GPU loop, the
pipelined runtime's workers) records into the same tracer. Finished spans
export to the Chrome trace-event format, so a *functional* engine run is
inspectable in Perfetto next to a simulated timeline.

Disabled tracing is near-free: ``span()`` returns one shared no-op context
manager — no object allocation, no clock read, no list append.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.telemetry.chrome import TraceSlice, build_chrome_trace, save_chrome_trace_json
from repro.telemetry.clock import WALL_CLOCK, Clock


@dataclass(frozen=True)
class SpanRecord:
    """One completed span."""

    name: str
    track: str
    start: float  # tracer-relative seconds
    end: float
    depth: int
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    """Shared do-nothing context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NULL_SPAN = _NullSpan()


class _Span:
    """A live span; records itself on exit."""

    __slots__ = ("tracer", "name", "track", "args", "start", "depth")

    def __init__(self, tracer: "SpanTracer", name: str, track: str | None, args: dict):
        self.tracer = tracer
        self.name = name
        self.track = track
        self.args = args
        self.start = 0.0
        self.depth = 0

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        if self.track is None:
            # Inherit the enclosing span's track, else the thread's name.
            self.track = stack[-1].track if stack else threading.current_thread().name
        self.depth = len(stack)
        stack.append(self)
        self.start = self.tracer.clock.perf()
        return self

    def __exit__(self, *exc_info) -> None:
        end = self.tracer.clock.perf()
        self.tracer._stack().pop()
        self.tracer._record(
            SpanRecord(
                name=self.name,
                track=self.track,
                start=self.start - self.tracer.epoch,
                end=end - self.tracer.epoch,
                depth=self.depth,
                args=self.args,
            )
        )


class SpanTracer:
    """Thread-aware hierarchical span recorder."""

    def __init__(self, clock: Clock | None = None, enabled: bool = True):
        self.clock = clock or WALL_CLOCK
        self.enabled = enabled
        self.epoch = self.clock.perf()
        self._records: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, track: str | None = None, **args):
        """Context manager bracketing a named region of execution."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, track, args)

    def instant(self, name: str, track: str | None = None, **args) -> None:
        """A zero-duration marker (retry fired, fault injected, ...)."""
        if not self.enabled:
            return
        now = self.clock.perf() - self.epoch
        if track is None:
            stack = self._stack()
            track = stack[-1].track if stack else threading.current_thread().name
        self._record(
            SpanRecord(name=name, track=track, start=now, end=now,
                       depth=len(self._stack()), args=args)
        )

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._records)

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
        self.epoch = self.clock.perf()

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Aggregate span statistics keyed by span name."""
        out: dict[str, dict[str, float]] = {}
        for record in self.records:
            stats = out.setdefault(
                record.name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
            )
            stats["count"] += 1
            stats["total_seconds"] += record.duration
            stats["max_seconds"] = max(stats["max_seconds"], record.duration)
        return out

    def to_chrome_trace(
        self,
        track_order: list[str] | None = None,
        other_data: dict | None = None,
    ) -> dict:
        """Render the recorded spans through the shared serialization."""
        slices = [
            TraceSlice(
                name=record.name,
                track=record.track,
                start_us=record.start * 1e6,
                dur_us=record.duration * 1e6,
                args=record.args,
            )
            for record in self.records
        ]
        return build_chrome_trace(
            slices, track_order=track_order, other_data=other_data
        )

    def save_chrome_trace(self, path: str, **kwargs) -> None:
        save_chrome_trace_json(self.to_chrome_trace(**kwargs), path)
