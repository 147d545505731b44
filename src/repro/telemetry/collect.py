"""Cluster/fleet trace collection: merge per-process event streams.

The dual of :mod:`repro.telemetry.export`: every process wrote its own
JSONL stream under ``workdir/telemetry/``; :class:`TraceCollector` reads
them all back (tolerantly — a SIGKILLed writer's truncated tail line is
skipped, complete events kept), and emits

- one Chrome trace with a lane per rank incarnation / fleet job, the
  coordinator's ``membership_events.jsonl`` entries rendered as instant
  events on their own lane;
- a fleet-wide :class:`~repro.telemetry.registry.MetricsRegistry`-style
  rollup — counters summed, gauges max-merged, histograms merged over
  raw samples — plus per-tenant page-traffic totals;
- a replay path that feeds per-step merged snapshots to an existing
  :class:`~repro.observe.watchdog.Watchdog`, so retry-storm and liveness
  rules fire over the *cluster's* counters, not one process's.

One clock: every process of a run shares one host, and ``perf()`` there
is the host's monotonic clock, so spans, metrics and alerts are placed
by their own timestamps. Only the coordinator's membership log is in
wall time; it moves onto the same axis by one ``wall - perf`` offset,
read from the first stream's meta line.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.telemetry.chrome import TraceSlice, build_chrome_trace, save_chrome_trace_json
from repro.telemetry.export import (
    EVENT_ALERT,
    EVENT_META,
    EVENT_METRICS,
    EVENT_SPAN,
    SCHEMA_VERSION,
    telemetry_dir,
)
from repro.telemetry.registry import Histogram, nearest_rank
from repro.units import fmt_bytes

#: Mirrors ``cluster.protocol.EVENTS_FILENAME`` (not imported: telemetry
#: sits below the cluster layer).
MEMBERSHIP_FILENAME = "membership_events.jsonl"

#: Tracks that render on the source's main lane rather than a sub-lane.
_MAIN_TRACKS = (None, "", "train", "MainThread")

#: The per-tenant traffic counters the fleet rollup totals.
_TRAFFIC_PREFIXES = (
    ("pages_moved_bytes", "pages.moved_bytes"),
    ("page_moves", "pages.moves"),
    ("io_read_bytes", "io.read_bytes"),
    ("io_write_bytes", "io.write_bytes"),
)


def read_jsonl(path: str) -> tuple[list[dict], int]:
    """Read one JSONL file tolerantly: (events, skipped-line count).

    A writer SIGKILLed mid-write leaves a truncated (or interleaved)
    tail; any line that is not one complete JSON object is counted and
    skipped, never fatal.
    """
    events: list[dict] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(event, dict):
                events.append(event)
            else:
                skipped += 1
    return events, skipped


def parse_metric_key(key: str) -> tuple[str, dict]:
    """Invert ``registry._key``: ``"a{x=1,y=2}"`` -> ``("a", {...})``."""
    if "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels = dict(
        part.split("=", 1) for part in inner.rstrip("}").split(",") if part
    )
    return name, labels


@dataclass
class EventStream:
    """One process's parsed telemetry file."""

    path: str
    meta: dict
    spans: list[dict] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    alerts: list[dict] = field(default_factory=list)
    skipped_lines: int = 0

    @property
    def source(self) -> str:
        return self.meta.get("source", os.path.basename(self.path))

    @property
    def role(self) -> str:
        return self.meta.get("role", "rank")

    @property
    def tenant(self) -> str | None:
        return self.meta.get("tenant")

    @property
    def last_metrics(self) -> dict | None:
        return self.metrics[-1] if self.metrics else None

    def lane_for(self, track) -> str:
        if track in _MAIN_TRACKS:
            return self.source
        return f"{self.source}/{track}"


def load_stream(path: str) -> EventStream | None:
    """Parse one event file; ``None`` if it never got a readable meta."""
    events, skipped = read_jsonl(path)
    meta = next((e for e in events if e.get("kind") == EVENT_META), None)
    if meta is None:
        return None
    if meta.get("version", 0) > SCHEMA_VERSION:
        raise ConfigurationError(
            f"{path} uses telemetry schema v{meta.get('version')}; "
            f"this reader understands <= v{SCHEMA_VERSION}"
        )
    stream = EventStream(path=path, meta=meta, skipped_lines=skipped)
    buckets = {
        EVENT_SPAN: stream.spans,
        EVENT_METRICS: stream.metrics,
        EVENT_ALERT: stream.alerts,
    }
    for event in events:
        bucket = buckets.get(event.get("kind"))
        if bucket is not None:
            bucket.append(event)
    return stream


def load_streams(workdir: str) -> list[EventStream]:
    """Every readable stream under ``workdir/telemetry/``, sorted."""
    streams = []
    for path in sorted(glob.glob(os.path.join(telemetry_dir(workdir), "*.jsonl"))):
        stream = load_stream(path)
        if stream is not None:
            streams.append(stream)
    streams.sort(key=lambda s: s.source)
    return streams


def load_membership(workdir: str) -> list[dict]:
    path = os.path.join(workdir, MEMBERSHIP_FILENAME)
    if not os.path.exists(path):
        return []
    events, _ = read_jsonl(path)
    return events


@dataclass
class CollectedTrace:
    """The merged artifact: one Chrome trace + one fleet-wide rollup."""

    trace: dict
    rollup: dict
    streams: list[EventStream]
    #: Lanes contributed by role="rank" streams (one per incarnation).
    rank_lanes: list[str]
    skipped_lines: int

    def save(self, trace_path: str, rollup_path: str | None = None) -> None:
        save_chrome_trace_json(self.trace, trace_path)
        if rollup_path:
            with open(rollup_path, "w", encoding="utf-8") as handle:
                json.dump(self.rollup, handle, indent=2, sort_keys=True)


class TraceCollector:
    """Merges a workdir's event streams into one :class:`CollectedTrace`."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def collect(self) -> CollectedTrace:
        streams = load_streams(self.workdir)
        membership = load_membership(self.workdir)

        slices: list[TraceSlice] = []
        rank_lanes: list[str] = []
        for stream in streams:
            if stream.role == "rank":
                rank_lanes.append(stream.source)
            for span in stream.spans:
                slices.append(TraceSlice(
                    name=span["name"],
                    track=stream.lane_for(span.get("track")),
                    start_us=span["start"] * 1e6,
                    dur_us=(span["end"] - span["start"]) * 1e6,
                    args=span.get("args") or {},
                ))
            for alert in stream.alerts:
                slices.append(TraceSlice(
                    name=f"alert/{alert['alert'].get('rule', '?')}",
                    track=stream.source,
                    start_us=alert["t"] * 1e6,
                    dur_us=0.0,
                    category="alert",
                    args=alert.get("alert") or {},
                ))
        # The coordinator logs wall time; one offset puts it on perf.
        meta = streams[0].meta if streams else {}
        offset = float(meta.get("wall", 0.0)) - float(meta.get("perf", 0.0))
        for event in membership:
            slices.append(TraceSlice(
                name=event.get("type", "event"),
                track="coordinator",
                start_us=(float(event.get("time", 0.0)) - offset) * 1e6,
                dur_us=0.0,
                category="membership",
                args={k: v for k, v in event.items()
                      if k not in ("type", "time")},
            ))

        # Rebase onto t=0 so the trace starts at its first event.
        if slices:
            t0 = min(s.start_us for s in slices)
            slices = [
                TraceSlice(
                    name=s.name, track=s.track, start_us=s.start_us - t0,
                    dur_us=s.dur_us, category=s.category, args=s.args,
                )
                for s in slices
            ]
        slices.sort(key=lambda s: (s.start_us, s.track, s.name))

        track_order = []
        if membership:
            track_order.append("coordinator")
        track_order += sorted(
            {lane for s in streams for lane in
             [s.lane_for(None)] + [s.lane_for(sp.get("track"))
                                   for sp in s.spans]}
        )
        rollup = merge_rollup(streams)
        trace = build_chrome_trace(
            slices,
            track_order=track_order,
            other_data={
                "workdir": self.workdir,
                "streams": len(streams),
                "skipped_lines": sum(s.skipped_lines for s in streams),
            },
        )
        return CollectedTrace(
            trace=trace,
            rollup=rollup,
            streams=streams,
            rank_lanes=sorted(rank_lanes),
            skipped_lines=sum(s.skipped_lines for s in streams),
        )


def merge_rollup(streams: list[EventStream]) -> dict:
    """Fleet-wide registry rollup from each stream's last snapshot.

    Counters are summed (they count disjoint per-process events), gauges
    max-merged (the interesting value of "missed heartbeats" or "pages
    in use" across ranks is the worst one), histograms merged over raw
    samples so percentiles come from the union of observations.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    merged_hists: dict[str, Histogram] = {}
    per_source: dict[str, dict] = {}
    for stream in streams:
        last = stream.last_metrics
        per_source[stream.source] = {
            "role": stream.role,
            "tenant": stream.tenant,
            "last_step": None if last is None else last.get("step"),
            "skipped_lines": stream.skipped_lines,
        }
        if last is None:
            continue
        for key, value in last.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in last.get("gauges", {}).items():
            gauges[key] = max(gauges.get(key, value), value)
        for key, samples in last.get("histograms", {}).items():
            hist = merged_hists.get(key)
            if hist is None:
                hist = merged_hists[key] = Histogram(key, {})
            hist.merge(samples)
    histograms = {
        key: {**hist.summary(), "p99": hist.percentile(99)}
        for key, hist in sorted(merged_hists.items())
    }
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": histograms,
        "per_source": per_source,
        "tenant_traffic": tenant_traffic(streams),
    }


def tenant_traffic(streams: list[EventStream]) -> dict:
    """Per-tenant page/IO traffic totals (PatrickStar-style accounting).

    Sums the traffic counters of every stream labelled with a tenant —
    in the fleet these are the per-job sinks — keyed deterministically.
    """
    totals: dict[str, dict[str, float]] = {}
    for stream in streams:
        if stream.tenant is None or stream.last_metrics is None:
            continue
        bucket = totals.setdefault(stream.tenant, {
            name: 0 for name, _ in _TRAFFIC_PREFIXES
        })
        bucket.setdefault("jobs", 0)
        bucket["jobs"] += 1
        for key, value in stream.last_metrics.get("counters", {}).items():
            base, _ = parse_metric_key(key)
            for field_name, prefix in _TRAFFIC_PREFIXES:
                if base == prefix:
                    bucket[field_name] += value
    return dict(sorted(totals.items()))


def replay_watchdog(streams: list[EventStream], watchdog) -> list:
    """Feed merged per-step snapshots to a Watchdog; returns its alerts.

    For every step any stream reported, each stream contributes its
    latest snapshot *at or before* that step (a crashed rank keeps
    asserting its last known counters rather than vanishing, exactly how
    a scrape-based monitoring system would see it); counters are summed
    and gauges max-merged, so retry storms and missed heartbeats trip
    the rules on cluster-wide totals.
    """
    from repro.observe.watchdog import StepSnapshot

    reporting = [s for s in streams if s.metrics]
    steps = sorted({m["step"] for s in reporting for m in s.metrics})
    alerts = []
    for step in steps:
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        for stream in reporting:
            snap = None
            for event in stream.metrics:
                if event["step"] <= step:
                    snap = event
                else:
                    break
            if snap is None:
                continue
            for key, value in snap.get("counters", {}).items():
                counters[key] = counters.get(key, 0) + value
            for key, value in snap.get("gauges", {}).items():
                gauges[key] = max(gauges.get(key, value), value)
        alerts.extend(watchdog.observe_step(
            step,
            snapshot=StepSnapshot(step=step, counters=counters,
                                  gauges=gauges, memory={}),
        ))
    return alerts


# ----------------------------------------------------------------------
# `repro top`: the live tail view over the same files
# ----------------------------------------------------------------------
def tail_state(workdir: str) -> dict:
    """One refresh of the dashboard: latest state per rank/job/tenant."""
    streams = load_streams(workdir)
    ranks: dict[str, dict] = {}
    tenants: dict[str, dict] = {}
    alerts: list[dict] = []
    for stream in streams:
        last = stream.last_metrics or {}
        counters = last.get("counters", {})
        gauges = last.get("gauges", {})
        info = {
            "role": stream.role,
            "tenant": stream.tenant,
            "step": last.get("step"),
            "heartbeat_age": None,
            "missed": None,
            "moved_bytes": 0,
            "io_bytes": 0,
        }
        for key, value in counters.items():
            base, _ = parse_metric_key(key)
            if base in ("pages.moved_bytes",):
                info["moved_bytes"] += value
            elif base in ("io.read_bytes", "io.write_bytes"):
                info["io_bytes"] += value
        for key, value in gauges.items():
            base, labels = parse_metric_key(key)
            if base == "cluster.heartbeat.age_seconds":
                worker = labels.get("worker", stream.source)
                entry = ranks.setdefault(worker, {"role": "rank"})
                entry["heartbeat_age"] = value
            elif base == "cluster.heartbeat.missed":
                worker = labels.get("worker", stream.source)
                entry = ranks.setdefault(worker, {"role": "rank"})
                entry["missed"] = value
            elif base == "quota.pages_in_use":
                tenant = labels.get("tenant", "?")
                tenants.setdefault(tenant, {})["pages_in_use"] = value
        for key, value in counters.items():
            base, labels = parse_metric_key(key)
            if base == "quota.rejections":
                tenant = labels.get("tenant", "?")
                tenants.setdefault(tenant, {})["rejections"] = value
        if stream.role in ("rank", "job"):
            entry = ranks.setdefault(stream.source, {})
            entry.update({k: v for k, v in info.items() if v is not None})
        for alert in stream.alerts[-3:]:
            alerts.append({"source": stream.source, **alert.get("alert", {})})
    for tenant, bucket in tenant_traffic(streams).items():
        tenants.setdefault(tenant, {})["pages_moved_bytes"] = (
            bucket["pages_moved_bytes"]
        )
    return {
        "workdir": workdir,
        "streams": len(streams),
        "ranks": dict(sorted(ranks.items())),
        "tenants": dict(sorted(tenants.items())),
        "alerts": alerts[-8:],
    }


def render_top(state: dict) -> str:
    """Render one :func:`tail_state` snapshot as the text dashboard."""
    lines = [
        f"repro top — {state['workdir']}  "
        f"({state['streams']} stream(s))",
        "",
        f"{'SOURCE':<14} {'ROLE':<6} {'STEP':>5} {'HB AGE':>8} "
        f"{'MISSED':>6} {'PAGES MOVED':>12} {'IO':>10}",
    ]
    for source, info in state["ranks"].items():
        age = info.get("heartbeat_age")
        missed = info.get("missed")
        lines.append(
            f"{source:<14} {info.get('role', '?'):<6} "
            f"{info.get('step') if info.get('step') is not None else '-':>5} "
            f"{f'{age:.2f}s' if age is not None else '-':>8} "
            f"{f'{missed:.0f}' if missed is not None else '-':>6} "
            f"{fmt_bytes(info.get('moved_bytes', 0)):>12} "
            f"{fmt_bytes(info.get('io_bytes', 0)):>10}"
        )
    if not state["ranks"]:
        lines.append("  (no rank/job streams yet)")
    if state["tenants"]:
        lines += [
            "",
            f"{'TENANT':<10} {'PAGES IN USE':>12} {'REJECTIONS':>10} "
            f"{'PAGES MOVED':>12}",
        ]
        for tenant, info in state["tenants"].items():
            lines.append(
                f"{tenant:<10} {info.get('pages_in_use', 0):>12} "
                f"{info.get('rejections', 0):>10} "
                f"{fmt_bytes(info.get('pages_moved_bytes', 0)):>12}"
            )
    if state["alerts"]:
        lines += ["", "ALERTS"]
        for alert in state["alerts"]:
            lines.append(
                f"  [{alert.get('severity', '?')}] {alert.get('rule', '?')} "
                f"@step {alert.get('step', '?')} ({alert.get('source', '?')}): "
                f"{alert.get('message', '')}"
            )
    return "\n".join(lines)


__all__ = [
    "CollectedTrace",
    "EventStream",
    "MEMBERSHIP_FILENAME",
    "TraceCollector",
    "load_stream",
    "load_streams",
    "merge_rollup",
    "nearest_rank",
    "parse_metric_key",
    "read_jsonl",
    "render_top",
    "replay_watchdog",
    "tail_state",
    "tenant_traffic",
]
