"""Job specifications and lifecycle records for the fleet control plane.

A :class:`JobSpec` is what a tenant submits: immutable intent (who, what
model, how many steps, how urgent). A :class:`JobRecord` is what the
gateway tracks: queueing, placement, executed steps, losses, preemption
history. Splitting the two keeps the deterministic traffic stream frozen
while the control plane mutates freely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.fleet.factory import JobWorkload


class JobState(str, enum.Enum):
    """Lifecycle of a job inside the gateway."""

    PENDING = "pending"        # admitted, waiting for a placement
    RUNNING = "running"        # engine live on a node
    PREEMPTED = "preempted"    # checkpointed and evicted; back in queue
    COMPLETED = "completed"    # all steps executed
    FAILED = "failed"          # unplaceable (exceeds every node/quota)


@dataclass(frozen=True)
class JobSpec:
    """One submitted training job (immutable tenant intent)."""

    job_id: int
    tenant: str
    #: Higher is more urgent; a higher-priority pending job may preempt a
    #: lower-priority running one.
    priority: int
    #: Virtual submission time, seconds since the bench epoch.
    submit_time: float
    steps: int
    #: The tiny stand-in engine actually trained (provides real numerics,
    #: checkpoints and page pressure at laptop scale).
    workload: JobWorkload
    #: Nominal Table-4 model this job stands in for; the DES cost model
    #: prices a virtual step of *this* model for scheduling decisions.
    model_name: str = "gpt3-1.7b"


@dataclass
class JobRecord:
    """Mutable control-plane state for one admitted job."""

    spec: JobSpec
    state: JobState = JobState.PENDING
    node: str | None = None
    steps_done: int = 0
    #: Virtual time the job first started computing (None while queued).
    first_start: float | None = None
    finish_time: float | None = None
    #: Virtual time of the latest (re-)enqueue, for preemption grace.
    enqueued_at: float = 0.0
    preemptions: int = 0
    resumes: int = 0
    #: Virtual compute seconds charged to the tenant (completed quanta).
    service_seconds: float = 0.0
    #: Virtual seconds of in-flight quanta lost to preemption.
    lost_seconds: float = 0.0
    #: Pages actually charged against the node quota while placed.
    pages: int = 0
    losses: list[float] = field(default_factory=list)
    #: Bumped on every preemption so stale completion events are ignored.
    epoch: int = 0

    @property
    def queue_latency(self) -> float | None:
        """Admission-to-first-compute wait (the p99 the bench reports)."""
        if self.first_start is None:
            return None
        return self.first_start - self.spec.submit_time

    @property
    def remaining_steps(self) -> int:
        return self.spec.steps - self.steps_done


__all__ = ["JobRecord", "JobSpec", "JobState"]
