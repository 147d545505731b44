"""Per-process telemetry export: append-only JSONL event streams.

Every process that wants cluster- or fleet-visible telemetry opens a
:class:`TelemetrySink` on its own file under ``workdir/telemetry/`` and
streams four event kinds into it: completed **spans** (drained from the
sink's :class:`~repro.telemetry.spans.SpanTracer`), **metrics** snapshots
of the whole registry at step boundaries, **anchor** markers that pin a
shared moment (a cluster generation forming) to the local monotonic
clock, and watchdog **alerts**. The first line of every file is a
``meta`` event naming the source, its role (rank / job / supervisor /
gateway), its tenant, and the local clock readings at open — everything
:mod:`repro.telemetry.collect` needs to align the stream into one
fleet-wide trace.

The format is deliberately crash-tolerant: each line is one complete
JSON object, writes happen at step boundaries followed by a flush, and a
process SIGKILLed mid-write leaves at most one truncated tail line,
which the collector skips while keeping every complete event. A live
object never crosses a process boundary — spawn configs carry a
picklable :class:`SinkSpec` (directory + flush interval) and each child
opens its own sink from it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.telemetry.clock import Clock
from repro.telemetry.core import Telemetry
from repro.telemetry.registry import Counter, Gauge, Histogram

#: Bumped when the event schema changes shape; the collector refuses
#: streams from the future rather than misreading them.
SCHEMA_VERSION = 1

#: Where sinks live relative to a run's workdir.
TELEMETRY_DIRNAME = "telemetry"

EVENT_META = "meta"
EVENT_SPAN = "span"
EVENT_ANCHOR = "anchor"
EVENT_METRICS = "metrics"
EVENT_ALERT = "alert"


def telemetry_dir(workdir: str) -> str:
    """The event-stream directory for one run's workdir."""
    return os.path.join(workdir, TELEMETRY_DIRNAME)


def _jsonable(value):
    """Fallback serializer: numpy scalars via item(), else str."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


@dataclass(frozen=True)
class SinkSpec:
    """A picklable recipe for opening a :class:`TelemetrySink`.

    This is what crosses process boundaries: ``cluster.supervisor`` puts
    one in the spawn config (instead of silently dropping the live
    telemetry object, which cannot be pickled), and each worker opens its
    own per-incarnation file from it.
    """

    directory: str
    #: Steps between forced flushes; 1 flushes at every step boundary.
    flush_interval: int = 1

    def __post_init__(self) -> None:
        if self.flush_interval < 1:
            raise ConfigurationError("flush_interval must be >= 1")

    def path_for(self, source: str) -> str:
        return os.path.join(self.directory, f"{source}.jsonl")

    def open(self, source: str, role: str = "rank", tenant: str | None = None,
             telemetry: Telemetry | None = None,
             clock: Clock | None = None) -> "TelemetrySink":
        return TelemetrySink(
            self.path_for(source), source, role=role, tenant=tenant,
            telemetry=telemetry, flush_interval=self.flush_interval,
            clock=clock,
        )


class TelemetrySink:
    """Streams one process's telemetry to an append-only JSONL file.

    The sink owns (or wraps) a :class:`Telemetry`; callers record spans
    and metrics through ``sink.telemetry`` exactly as before, and call
    :meth:`step` at step boundaries — the sink drains newly completed
    spans, snapshots the registry, and flushes every ``flush_interval``
    steps. Span and anchor timestamps are *local monotonic* seconds
    (``clock.perf()``); the collector aligns them across processes using
    anchor events, falling back to the wall-clock reading taken at open.
    """

    def __init__(self, path: str, source: str, role: str = "rank",
                 tenant: str | None = None,
                 telemetry: Telemetry | None = None,
                 flush_interval: int = 1, clock: Clock | None = None):
        if flush_interval < 1:
            raise ConfigurationError("flush_interval must be >= 1")
        self.path = path
        self.source = source
        self.role = role
        self.tenant = tenant
        self.telemetry = telemetry if telemetry is not None else Telemetry(
            clock=clock
        )
        self.flush_interval = flush_interval
        self._clock = self.telemetry.clock
        self._span_cursor = 0
        self._last_flush_step: int | None = None
        self._buffer: list[dict] = []
        self._closed = False
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")
        # The meta line lands immediately: even a process that dies in
        # its first step leaves an identifiable, alignable stream.
        self._buffer.append({
            "kind": EVENT_META,
            "version": SCHEMA_VERSION,
            "source": source,
            "role": role,
            "tenant": tenant,
            "pid": os.getpid(),
            "perf": self._clock.perf(),
            "wall": self._clock.wall(),
            "flush_interval": flush_interval,
        })
        self.flush()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def event(self, kind: str, **fields) -> None:
        """Buffer one raw event line (written at the next flush)."""
        self._buffer.append({"kind": kind, **fields})

    def anchor(self, name: str, **args) -> None:
        """Pin a shared moment (e.g. ``generation:3``) to the local clock.

        Anchors are the collector's alignment currency, so they are rare
        and flushed immediately — a stream that later crashes still
        aligns.
        """
        self.event(EVENT_ANCHOR, name=name, t=self._clock.perf(),
                   args=dict(args))
        self.flush()

    def record_alert(self, alert) -> None:
        """Append one watchdog alert (anything with ``to_dict()``)."""
        payload = alert.to_dict() if hasattr(alert, "to_dict") else dict(alert)
        self.event(EVENT_ALERT, t=self._clock.perf(), alert=payload)

    def step(self, step: int) -> None:
        """Step boundary: snapshot the registry, flush on the interval."""
        self.event(EVENT_METRICS, step=int(step), t=self._clock.perf(),
                   **self._registry_snapshot())
        if (
            self._last_flush_step is None
            or step - self._last_flush_step >= self.flush_interval
        ):
            self.flush()
            self._last_flush_step = step

    def _registry_snapshot(self) -> dict:
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for key, instrument in sorted(
            self.telemetry.registry.instruments().items()
        ):
            if isinstance(instrument, Counter):
                counters[key] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[key] = instrument.value
            elif isinstance(instrument, Histogram):
                histograms[key] = instrument.samples
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    # ------------------------------------------------------------------
    # Flushing / teardown
    # ------------------------------------------------------------------
    def _drain_spans(self) -> None:
        records = self.telemetry.tracer.records
        epoch = self.telemetry.tracer.epoch
        for record in records[self._span_cursor:]:
            self._buffer.append({
                "kind": EVENT_SPAN,
                "name": record.name,
                "track": record.track,
                "start": record.start + epoch,
                "end": record.end + epoch,
                "depth": record.depth,
                "args": dict(record.args),
            })
        self._span_cursor = len(records)

    def flush(self) -> None:
        """Write every buffered event as complete lines, then flush."""
        if self._closed:
            return
        self._drain_spans()
        if self._buffer:
            lines = [
                json.dumps(event, default=_jsonable) for event in self._buffer
            ]
            self._buffer = []
            self._handle.write("\n".join(lines) + "\n")
        self._handle.flush()

    def tear(self) -> None:
        """Leave a deliberately truncated tail (crash-emulation hook).

        Writes the prefix of a metrics line with no terminating newline
        and flushes it — byte-for-byte what a SIGKILL mid-write leaves
        behind, which is exactly what the collector's tolerant reader
        must skip. Used by the cluster kill-rank scenario right before
        the SIGKILL so crash tolerance is exercised deterministically.
        The sink is closed afterwards: a later ``close()`` writes nothing.
        """
        self.flush()
        self._handle.write('{"kind": "metrics", "step": 4, "counters": {"tru')
        self._closed = True
        self._handle.close()

    def close(self, final_step: int | None = None) -> None:
        if self._closed:
            return
        if final_step is not None:
            self.event(EVENT_METRICS, step=int(final_step),
                       t=self._clock.perf(), **self._registry_snapshot())
        self.flush()
        self._closed = True
        self._handle.close()

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "EVENT_ALERT",
    "EVENT_ANCHOR",
    "EVENT_META",
    "EVENT_METRICS",
    "EVENT_SPAN",
    "SCHEMA_VERSION",
    "SinkSpec",
    "TELEMETRY_DIRNAME",
    "TelemetrySink",
    "telemetry_dir",
]
