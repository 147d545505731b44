"""The fleet gateway: admission, scheduling, preemption, rollup.

A single-threaded discrete-event loop over *virtual* time drives the
whole control plane, which is what makes a run deterministic for a
given seed: arrivals come from the seeded traffic generator, each
running job's next quantum completion is an event priced by the DES cost
model, and every decision (placement, preemption victim, admission
order) is a pure function of that state.

The engines are real. Each placed job trains an actual tiny-transformer
:class:`~repro.engine.angel.AngelModel` whose pages are charged against
the node's shared :class:`~repro.memory.PageQuota` ledger. Quanta are
executed *lazily at their completion events*: until the event fires, the
engine still holds the state of the last completed quantum, so a
preemption — which always happens at an event time — checkpoints exactly
``steps_done`` steps through the crash-consistent snapshot path and the
in-flight quantum's virtual time is the preemption's lost work. A
resumed job rebuilds its engine from the same :class:`JobFactory`
recipe, restores the snapshot, and replays the same batch stream — so
its final losses are bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field

from repro.checkpoint.snapshot import (
    latest_good_snapshot,
    prune_snapshots,
    save_snapshot,
    snapshot_path,
)
from repro.checkpoint.trainer_state import capture_engine_state, restore_engine_state
from repro.engine.angel import AngelConfig
from repro.errors import ConfigurationError, SchedulingError
from repro.fleet.factory import JobFactory
from repro.fleet.jobs import JobRecord, JobState
from repro.fleet.scheduler import FairShareScheduler, FleetNode
from repro.fleet.traffic import TrafficConfig, generate_jobs
from repro.memory.allocator import PageQuota
from repro.protocols import TelemetryLike
from repro.telemetry.export import TelemetrySink
from repro.telemetry.registry import nearest_rank
from repro.units import KiB, MiB


@dataclass(frozen=True)
class FleetConfig:
    """One fleet scenario: traffic, machines, quotas, policy knobs."""

    seed: int = 7
    #: Submission stream; ``None`` derives ``TrafficConfig(seed=seed)``.
    traffic: TrafficConfig | None = None
    num_nodes: int = 2
    #: Page capacity of each node's shared ledger — the packing budget.
    #: Sized against the stand-in engines (a 1-layer job pins ~60 pages,
    #: a 2-layer job ~100 at 32 KiB pages): one deep + one shallow job
    #: fill a node, two deep jobs do not fit together.
    node_pages: int = 160
    #: Per-tenant cap on each node (< node_pages keeps one tenant from
    #: monopolizing a machine; the quota the fleet tests exceed).
    tenant_quota_pages: int = 120
    page_bytes: int = 32 * KiB
    #: Private per-engine pool sizes; generous — the *node ledger* is the
    #: binding constraint, not the engine pools.
    gpu_memory_bytes: int = 2 * MiB
    cpu_memory_bytes: int = 24 * MiB
    #: Steps a job runs per scheduling quantum (preemption granularity).
    quantum_steps: int = 2
    #: Virtual seconds a starved higher-priority job waits before it may
    #: preempt; 0 preempts at the first scheduling pass it loses.
    preempt_grace_seconds: float = 0.0
    #: Nominal (batch, seq) the DES cost model prices virtual steps at.
    est_seq_len: int = 256
    est_micro_batch: int = 1
    #: Snapshots kept per job directory (preemption churn bound).
    keep_snapshots: int = 2
    workdir: str | None = None
    telemetry: TelemetryLike | None = None

    def __post_init__(self) -> None:
        if self.quantum_steps < 1:
            raise ConfigurationError("quantum_steps must be >= 1")
        if self.tenant_quota_pages > self.node_pages:
            raise ConfigurationError(
                "tenant_quota_pages cannot exceed node_pages"
            )

    def resolved_traffic(self) -> TrafficConfig:
        return self.traffic or TrafficConfig(seed=self.seed)


@dataclass
class FleetReport:
    """Everything one gateway run produced, rolled up fleet-wide."""

    config: FleetConfig
    jobs: list[JobRecord]
    makespan_seconds: float
    admission_order: list[int]
    preemption_events: list[dict]
    fairness: dict
    events: list[dict] = field(default_factory=list)
    alerts: list[dict] = field(default_factory=list)

    @property
    def completed(self) -> list[JobRecord]:
        return [job for job in self.jobs if job.state is JobState.COMPLETED]

    @property
    def preemptions(self) -> int:
        return sum(job.preemptions for job in self.jobs)

    def jobs_per_hour(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return len(self.completed) * 3600.0 / self.makespan_seconds

    def queue_latencies(self) -> list[float]:
        return sorted(
            job.queue_latency
            for job in self.jobs
            if job.queue_latency is not None
        )

    def latency_percentile(self, fraction: float) -> float | None:
        """Queue-wait percentile over every job that started (e.g. .99)."""
        waits = self.queue_latencies()
        if not waits:
            return None
        return nearest_rank(waits, fraction * 100)


class FleetGateway:
    """Admits, schedules, preempts and resumes jobs over virtual time."""

    def __init__(self, config: FleetConfig, workdir: str | None = None):
        self.config = config
        workdir = workdir or config.workdir
        if workdir is None:
            import tempfile

            workdir = tempfile.mkdtemp(prefix="repro-fleet-")
        self.workdir = workdir
        telemetry = config.telemetry
        if telemetry is None:
            from repro.telemetry.core import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.telemetry = telemetry
        from repro.hardware.cluster import a100_cluster
        from repro.observe.watchdog import Watchdog
        from repro.tracer.costmodel import CostModel

        server = a100_cluster(config.num_nodes).server
        nodes = [
            FleetNode(
                name=f"node{i}",
                quota=PageQuota(
                    quotas={
                        tenant: config.tenant_quota_pages
                        for tenant in config.resolved_traffic().tenants
                    },
                    capacity_pages=config.node_pages,
                    telemetry=telemetry,
                ),
                capacity_pages=config.node_pages,
            )
            for i in range(config.num_nodes)
        ]
        self.scheduler = FairShareScheduler(
            nodes,
            CostModel(gpu=server.gpus[0], cpu=server.cpu),
            page_bytes=config.page_bytes,
            est_seq_len=config.est_seq_len,
            est_micro_batch=config.est_micro_batch,
        )
        #: Fleet-wide watchdog: every job's engine is observed at quantum
        #: boundaries, so alerts from all tenants roll up in one place.
        self.watchdog = Watchdog(telemetry=telemetry)
        #: Event streams under workdir/telemetry/: one per job
        #: (tenant-labelled, feeding the per-tenant traffic rollup) plus
        #: the gateway's own (queue depth, quota gauges, alerts).
        self._sinks: dict[int, object] = {}
        self._gateway_sink = TelemetrySink(
            self.workdir, "gateway", role="gateway", telemetry=telemetry
        )
        self._tick = 0
        self._engines: dict[int, object] = {}
        self._batches: dict[int, list] = {}
        self._events: list[dict] = []
        self._admission_order: list[int] = []
        self._preemption_events: list[dict] = []
        self._completion_heap: list[tuple] = []
        self._event_seq = 0

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(self, jobs: list | None = None) -> FleetReport:
        """Drive the scenario to completion.

        ``jobs`` overrides the generated traffic with an explicit
        submission list (engineered scenarios, tests); the default is the
        config's seeded stream.
        """
        specs = jobs if jobs is not None else generate_jobs(
            self.config.resolved_traffic()
        )
        records = {spec.job_id: JobRecord(spec) for spec in specs}
        arrivals = sorted(specs, key=lambda s: (s.submit_time, s.job_id))
        pending: list[JobRecord] = []
        next_arrival = 0
        now = 0.0
        try:
            while True:
                times = []
                if next_arrival < len(arrivals):
                    times.append(arrivals[next_arrival].submit_time)
                if self._completion_heap:
                    times.append(self._completion_heap[0][0])
                if not times:
                    if pending:
                        # Nothing running, nothing arriving: whatever is
                        # still queued cannot fit even on idle nodes.
                        for record in pending:
                            self._fail(record, now)
                        pending = []
                    break
                now = min(times)
                while (
                    next_arrival < len(arrivals)
                    and arrivals[next_arrival].submit_time <= now
                ):
                    record = records[arrivals[next_arrival].job_id]
                    record.enqueued_at = now
                    pending.append(record)
                    self._admission_order.append(record.spec.job_id)
                    self.telemetry.record_job("admitted", record.spec.tenant)
                    self._log(now, "admit", record)
                    next_arrival += 1
                while (
                    self._completion_heap
                    and self._completion_heap[0][0] <= now
                ):
                    _, _, job_id, epoch, steps = heapq.heappop(
                        self._completion_heap
                    )
                    record = records[job_id]
                    if record.epoch != epoch or record.state is not JobState.RUNNING:
                        continue  # cancelled by a preemption
                    self._complete_quantum(record, now, steps)
                pending = self._schedule(pending, now)
        finally:
            for engine in self._engines.values():
                engine.close()
            self._engines.clear()
            for sink in self._sinks.values():
                sink.close()
            self._gateway_sink.close(final_step=self._tick)
        return FleetReport(
            config=self.config,
            jobs=[records[spec.job_id] for spec in specs],
            makespan_seconds=now,
            admission_order=self._admission_order,
            preemption_events=self._preemption_events,
            fairness=self.scheduler.fairness(),
            events=self._events,
            alerts=self.watchdog.payload(),
        )

    # ------------------------------------------------------------------
    # Scheduling passes
    # ------------------------------------------------------------------
    def _schedule(self, pending: list[JobRecord], now: float) -> list[JobRecord]:
        progress = True
        while progress and pending:
            progress = False
            for record in self.scheduler.rank(pending):
                node = self.scheduler.find_placement(record)
                if node is None and self._unplaceable_anywhere(record):
                    pending.remove(record)
                    self._fail(record, now)
                    progress = True
                    break
                if node is None:
                    grace = now - record.enqueued_at
                    if grace < self.config.preempt_grace_seconds:
                        continue
                    found = self.scheduler.find_victim(record)
                    if found is None:
                        continue
                    node, victim = found
                    self._preempt(victim, node, record, now)
                    pending.append(victim)
                self._launch(record, node, now)
                pending.remove(record)
                progress = True
                break
        self.telemetry.record_queue_depth(len(pending))
        return pending

    def _unplaceable_anywhere(self, record: JobRecord) -> bool:
        """True when the job would not fit even on an *empty* node."""
        pages = self.scheduler.estimate(record.spec).pages
        tenant_cap = self.config.tenant_quota_pages
        return pages > min(self.config.node_pages, tenant_cap)

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def _job_dir(self, record: JobRecord) -> str:
        path = os.path.join(self.workdir, f"job-{record.spec.job_id:04d}")
        os.makedirs(path, exist_ok=True)
        return path

    def _job_sink(self, record: JobRecord):
        """The job's event stream; reused across preempt/resume cycles
        so its counters accumulate whole-job totals."""
        spec = record.spec
        sink = self._sinks.get(spec.job_id)
        if sink is None:
            sink = self._sinks[spec.job_id] = TelemetrySink(
                self.workdir, f"job-{spec.job_id:04d}", role="job",
                tenant=spec.tenant,
            )
        return sink

    def _launch(self, record: JobRecord, node: FleetNode, now: float) -> None:
        spec = record.spec
        factory = JobFactory(spec.workload)
        sink = self._job_sink(record)
        engine = factory.engine(
            AngelConfig(
                gpu_memory_bytes=self.config.gpu_memory_bytes,
                cpu_memory_bytes=self.config.cpu_memory_bytes,
                page_bytes=self.config.page_bytes,
                owner=spec.tenant,
                quota=node.quota,
                telemetry=sink.telemetry,
            )
        )
        resumed = record.state is JobState.PREEMPTED
        if resumed:
            found = latest_good_snapshot(self._job_dir(record))
            if found is None:
                raise SchedulingError(
                    f"job {spec.job_id} preempted but has no snapshot"
                )
            snapshot, step = found
            restore_engine_state(snapshot, engine)
            record.steps_done = step
            record.resumes += 1
        self._engines[spec.job_id] = engine
        if spec.job_id not in self._batches:
            self._batches[spec.job_id] = factory.batches(spec.steps)
        record.state = JobState.RUNNING
        record.node = node.name
        record.pages = engine.allocator.pages_charged
        if record.first_start is None:
            record.first_start = now
        node.running[spec.job_id] = record
        self._push_quantum(record, now)
        self.telemetry.record_job(
            "resumed" if resumed else "started", spec.tenant
        )
        self._log(now, "resume" if resumed else "start", record, node=node.name)

    def _push_quantum(self, record: JobRecord, now: float) -> None:
        steps = min(self.config.quantum_steps, record.remaining_steps)
        est = self.scheduler.estimate(record.spec)
        self._event_seq += 1
        heapq.heappush(
            self._completion_heap,
            (
                now + steps * est.step_seconds,
                self._event_seq,
                record.spec.job_id,
                record.epoch,
                steps,
            ),
        )

    def _complete_quantum(self, record: JobRecord, now: float, steps: int) -> None:
        """Execute the quantum that just finished in virtual time."""
        engine = self._engines[record.spec.job_id]
        batches = self._batches[record.spec.job_id]
        for batch in batches[record.steps_done:record.steps_done + steps]:
            loss = engine(batch)
            engine.backward(loss)
            engine.step()
            record.losses.append(loss.item())
        record.steps_done += steps
        est = self.scheduler.estimate(record.spec)
        elapsed = steps * est.step_seconds
        record.service_seconds += elapsed
        self.scheduler.credit_service(record.spec.tenant, elapsed)
        fired = self.watchdog.observe_engine(engine, step=record.steps_done)
        for alert in fired:
            self._gateway_sink.record_alert(alert)
        self._job_sink(record).step(record.steps_done)
        self._tick += 1
        self._gateway_sink.step(self._tick)
        if record.remaining_steps == 0:
            self._finish(record, now)
        else:
            self._push_quantum(record, now)

    def _preempt(
        self,
        victim: JobRecord,
        node: FleetNode,
        contender: JobRecord,
        now: float,
    ) -> None:
        """Checkpoint and evict ``victim`` to make room for ``contender``.

        The engine holds exactly ``steps_done`` completed steps (quanta
        execute lazily at completion events), so the snapshot is taken on
        a step boundary through the same crash-consistent path the
        resilient trainer uses; the cancelled in-flight quantum is the
        preemption's lost virtual time.
        """
        engine = self._engines.pop(victim.spec.job_id)
        job_dir = self._job_dir(victim)
        snapshot = capture_engine_state(engine, step=victim.steps_done)
        save_snapshot(snapshot, snapshot_path(job_dir, victim.steps_done))
        prune_snapshots(job_dir, keep=self.config.keep_snapshots)
        engine.close()  # returns every page to the node ledger
        node.running.pop(victim.spec.job_id, None)
        victim.epoch += 1  # cancels the in-flight completion event
        est = self.scheduler.estimate(victim.spec)
        victim.lost_seconds += min(
            self.config.quantum_steps, victim.remaining_steps
        ) * est.step_seconds
        victim.state = JobState.PREEMPTED
        victim.node = None
        victim.pages = 0
        victim.preemptions += 1
        victim.enqueued_at = now
        self._preemption_events.append(
            {
                "time": round(now, 6),
                "victim": victim.spec.job_id,
                "victim_tenant": victim.spec.tenant,
                "victim_priority": victim.spec.priority,
                "by_job": contender.spec.job_id,
                "by_tenant": contender.spec.tenant,
                "by_priority": contender.spec.priority,
                "node": node.name,
                "at_step": victim.steps_done,
            }
        )
        self.telemetry.record_job("preempted", victim.spec.tenant)
        self._log(now, "preempt", victim, node=node.name,
                  by_job=contender.spec.job_id)

    def _finish(self, record: JobRecord, now: float) -> None:
        engine = self._engines.pop(record.spec.job_id)
        engine.close()
        for node in self.scheduler.nodes:
            node.running.pop(record.spec.job_id, None)
        record.state = JobState.COMPLETED
        record.finish_time = now
        record.node = None
        record.pages = 0
        self.telemetry.record_job("completed", record.spec.tenant)
        self._log(now, "complete", record)

    def _fail(self, record: JobRecord, now: float) -> None:
        record.state = JobState.FAILED
        record.finish_time = now
        self.telemetry.record_job("failed", record.spec.tenant)
        self._log(now, "fail", record)

    def _log(self, now: float, event: str, record: JobRecord, **extra) -> None:
        entry = {
            "time": round(now, 6),
            "event": event,
            "job_id": record.spec.job_id,
            "tenant": record.spec.tenant,
        }
        entry.update(extra)
        self._events.append(entry)


__all__ = ["FleetConfig", "FleetGateway", "FleetReport"]
