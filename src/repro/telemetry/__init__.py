"""Runtime telemetry: span tracing, metrics, clocks and trace collection.

The observability layer the functional engine was missing: hierarchical
:class:`SpanTracer` spans exported to the same Chrome trace-event format
as simulated timelines, a labelled :class:`MetricsRegistry` absorbing
per-tier page traffic and fault/retry accounting, injectable
:class:`Clock` time sources for deterministic tests, and the
collector that merges a run's per-process event streams into one trace
(:mod:`repro.telemetry.collect`).
"""

from repro.telemetry.clock import WALL_CLOCK, Clock, ManualClock
from repro.telemetry.collect import CollectedTrace, TraceCollector
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.telemetry.export import TelemetrySink
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    nearest_rank,
)
from repro.telemetry.spans import NULL_SPAN, SpanRecord, SpanTracer

__all__ = [
    "Clock",
    "CollectedTrace",
    "Counter",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "SpanRecord",
    "SpanTracer",
    "Telemetry",
    "TelemetrySink",
    "TraceCollector",
    "WALL_CLOCK",
    "nearest_rank",
]
