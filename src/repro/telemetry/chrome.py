"""Chrome trace-event serialization shared by simulation and runtime.

Both the discrete-event simulator (``sim.Timeline.to_chrome_trace``) and
the runtime span tracer (``telemetry.spans``) render to the same artifact:
a Chrome ``traceEvents`` JSON openable in ``chrome://tracing`` / Perfetto.
This module owns the format — metadata rows naming each track, one ``X``
(complete) event per slice, stable tid assignment — so the two producers
cannot drift apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceSlice:
    """One renderable slice: a task occupancy on a named track."""

    name: str
    track: str
    start_us: float
    dur_us: float
    category: str = ""
    args: dict = field(default_factory=dict)


def assign_tids(tracks: list[str]) -> dict[str, int]:
    """Stable track -> tid map, in the order given (first seen wins)."""
    tids: dict[str, int] = {}
    for track in tracks:
        if track not in tids:
            tids[track] = len(tids)
    return tids


def build_chrome_trace(
    slices: list[TraceSlice],
    track_order: list[str] | None = None,
    other_data: dict | None = None,
) -> dict:
    """Assemble the Chrome trace-event JSON object.

    ``track_order`` pins the visual row ordering; tracks present only in
    ``slices`` are appended after it in first-appearance order.
    """
    tracks = list(track_order or [])
    tracks += [s.track for s in slices]
    tid_of = assign_tids(tracks)
    events: list[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "cat": "__metadata",
            "args": {"name": track},
        }
        for track, tid in tid_of.items()
    ]
    for s in slices:
        event = {
            "name": s.name,
            "cat": s.category or s.track,
            "ph": "X",
            "pid": 0,
            "tid": tid_of[s.track],
            "ts": s.start_us,
            # Perfetto drops zero-width slices; keep them visible.
            "dur": max(s.dur_us, 0.001),
        }
        if s.args:
            event["args"] = dict(s.args)
        events.append(event)
    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    if other_data:
        trace["otherData"] = dict(other_data)
    return trace


def save_chrome_trace_json(trace: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
