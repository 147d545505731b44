"""The Telemetry facade: one object wiring clock, tracer and registry.

Subsystems accept ``telemetry=None`` and treat ``None`` as "off"; callers
that want observability build one :class:`Telemetry` and pass it down so
spans, per-tier traffic counters, fault counts and retry latencies all
land in a single export path. :data:`NULL_TELEMETRY` is a disabled
instance whose every operation is a no-op — safe to store and call
unconditionally on hot paths.
"""

from __future__ import annotations

from repro.telemetry.clock import WALL_CLOCK, Clock
from repro.telemetry.registry import NULL_INSTRUMENT, MetricsRegistry
from repro.telemetry.spans import NULL_SPAN, SpanTracer


class Telemetry:
    """Bundles a clock, a span tracer and a metrics registry."""

    def __init__(
        self,
        clock: Clock | None = None,
        enabled: bool = True,
        registry: MetricsRegistry | None = None,
        tracer: SpanTracer | None = None,
    ):
        self.clock = clock or WALL_CLOCK
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else SpanTracer(
            clock=self.clock, enabled=enabled
        )

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, track: str | None = None, **args):
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, track=track, **args)

    def instant(self, name: str, track: str | None = None, **args) -> None:
        if self.enabled:
            self.tracer.instant(name, track=track, **args)

    # ------------------------------------------------------------------
    # Instruments (get-or-create; cacheable by identity)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels):
        if not self.enabled:
            return NULL_INSTRUMENT
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels):
        if not self.enabled:
            return NULL_INSTRUMENT
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels):
        if not self.enabled:
            return NULL_INSTRUMENT
        return self.registry.histogram(name, **labels)

    # ------------------------------------------------------------------
    # Domain vocabulary (the metric-name catalog, docs/telemetry.md)
    # ------------------------------------------------------------------
    def record_page_move(self, src: str, dst: str, nbytes: int) -> None:
        """One page crossing a (src-tier, dst-tier) edge."""
        if not self.enabled:
            return
        self.registry.counter("pages.moved_bytes", src=src, dst=dst).inc(nbytes)
        self.registry.counter("pages.moves", src=src, dst=dst).inc()

    def record_copy_batch(
        self, src: str, dst: str, pages: int, nbytes: int,
        copy_calls: int, seconds: float,
    ) -> None:
        """One coalesced MoveGroup transfer along a (src, dst) edge.

        ``copy_calls`` is the number of gather/scatter slice copies the
        batch was issued as — O(runs), not O(pages), when the arena free
        lists keep pages contiguous. ``pages.moved_per_sec`` is the
        instantaneous rate of the most recent batch on the edge;
        ``pages.bytes_per_copy_call`` distributes how large each physical
        copy was (the PCIe-utilization proxy the paper sizes pages for).
        """
        if not self.enabled:
            return
        self.registry.counter("pages.copy_calls", src=src, dst=dst).inc(
            copy_calls
        )
        if copy_calls:
            per_call = nbytes / copy_calls
            self.registry.histogram(
                "pages.bytes_per_copy_call", src=src, dst=dst
            ).observe(per_call)
        if seconds > 0:
            self.registry.gauge("pages.moved_per_sec", src=src, dst=dst).set(
                pages / seconds
            )

    def record_collective(self, kind: str, nbytes: int) -> None:
        """Bytes entering one collective (all_gather, all_reduce, ...)."""
        if not self.enabled:
            return
        self.registry.counter(f"collective.{kind}_bytes").inc(nbytes)

    def record_prefetch(self, outcome: str) -> None:
        """One prefetch group finishing: completed / abandoned / deferred."""
        if not self.enabled:
            return
        self.registry.counter("pipeline.prefetch", outcome=outcome).inc()

    def record_heartbeat(self, worker: str, age_seconds: float,
                         missed: int) -> None:
        """One worker's failure-detector view: heartbeat age and misses.

        Mirrored by the cluster supervisor from the coordinator's
        ``stats`` RPC; the ``worker_liveness`` watchdog rule reads the
        ``cluster.heartbeat.missed`` gauges.
        """
        if not self.enabled:
            return
        self.registry.gauge(
            "cluster.heartbeat.age_seconds", worker=worker
        ).set(age_seconds)
        self.registry.gauge(
            "cluster.heartbeat.missed", worker=worker
        ).set(missed)

    def record_membership(self, generation: int, size: int,
                          evictions: int) -> None:
        """The cluster's current generation, its size, and total evictions."""
        if not self.enabled:
            return
        self.registry.gauge("cluster.membership.generation").set(generation)
        self.registry.gauge("cluster.membership.size").set(size)
        self.registry.gauge("cluster.membership.evictions").set(evictions)

    def record_stall(self, edge: str, seconds: float) -> None:
        """Compute blocked waiting for the pipeline on one tier edge."""
        if not self.enabled or seconds <= 0:
            return
        self.registry.counter("pipeline.stalls", edge=edge).inc()
        self.registry.histogram("pipeline.stall_seconds", edge=edge).observe(
            seconds
        )

    def record_job(self, event: str, tenant: str) -> None:
        """Fleet job-lifecycle event (admitted/started/preempted/...)."""
        if not self.enabled:
            return
        self.registry.counter("fleet.jobs", event=event, tenant=tenant).inc()

    def record_queue_depth(self, depth: int) -> None:
        """Jobs waiting for a placement in the fleet gateway."""
        if not self.enabled:
            return
        self.registry.gauge("fleet.queue_depth").set(depth)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def dump(self) -> dict:
        """Unified snapshot: every metric plus the span breakdown."""
        return {
            "metrics": self.registry.dump(),
            "spans": self.tracer.breakdown(),
        }


#: Shared disabled instance; ``telemetry or NULL_TELEMETRY`` is the idiom.
NULL_TELEMETRY = Telemetry(enabled=False)
