"""The invariant catalog and counterexample data model.

Every property the static verifier proves about an Algorithm-1 schedule
has a stable name here (the "invariant id" the docs, the CLI output and
the CI gate all refer to). A failed proof is reported as a
:class:`Violation` — a machine-readable counterexample carrying the
trigger id where the invariant breaks, the page/tensor involved and the
page's movement provenance, so a broken scheduler optimization explains
itself without ever running the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Schedule invariants (prong 1). See docs/static-analysis.md.
USE_BEFORE_FETCH = "use-before-fetch"
OOM_AT_TRIGGER = "oom-at-trigger"
EVICT_PINNED = "evict-pinned"
DOUBLE_MOVE = "double-move"
DOUBLE_FREE = "double-free"
GATHER_BEFORE_USE = "gather-before-use"
PAGE_SHARING = "page-sharing"
STALENESS_BOUND = "staleness-bound"

#: Canonical check order (also the order sections render in reports).
SCHEDULE_INVARIANTS = (
    USE_BEFORE_FETCH,
    OOM_AT_TRIGGER,
    EVICT_PINNED,
    DOUBLE_MOVE,
    DOUBLE_FREE,
    GATHER_BEFORE_USE,
    PAGE_SHARING,
    STALENESS_BOUND,
)

#: Concurrency lint rules (prong 2).
SHARED_STATE_RACE = "SA001"  # cross-thread attribute access, unmediated
LOCK_ORDER_CYCLE = "SA002"   # inconsistent nested lock-acquisition order
SPAWN_PICKLE = "SA003"       # thread/lock/telemetry state crossing a spawn
SHM_LIFECYCLE = "SA004"      # shared_memory created, never close+unlink'd
UNBOUNDED_RECV = "SA005"     # cross-process recv/wait with no timeout
DISCARDED_TIMEOUT = "SA006"  # join/wait(timeout) whose outcome nobody reads

LINT_RULES = (
    SHARED_STATE_RACE,
    LOCK_ORDER_CYCLE,
    SPAWN_PICKLE,
    SHM_LIFECYCLE,
    UNBOUNDED_RECV,
    DISCARDED_TIMEOUT,
)

#: Membership-protocol invariants (prong 3, the coordinator model
#: checker). See docs/static-analysis.md for the catalog.
GENERATION_MONOTONIC = "generation-monotonic"
FENCE_NEVER_PATCH = "fence-never-patch"
UNIQUE_RANK_PER_SLOT = "unique-rank-per-slot"
BARRIER_RELEASE_FULL = "barrier-release-full"
NO_SPLIT_BRAIN = "no-split-brain"
INCARNATION_BUMP = "incarnation-bump"
RENDEZVOUS_CONVERGENCE = "rendezvous-convergence"
COMPLETE_IMPLIES_DONE = "complete-implies-done"
SURVIVORS_REJOIN = "survivors-rejoin"

PROTOCOL_INVARIANTS = (
    GENERATION_MONOTONIC,
    FENCE_NEVER_PATCH,
    UNIQUE_RANK_PER_SLOT,
    BARRIER_RELEASE_FULL,
    NO_SPLIT_BRAIN,
    INCARNATION_BUMP,
    RENDEZVOUS_CONVERGENCE,
    COMPLETE_IMPLIES_DONE,
    SURVIVORS_REJOIN,
)

#: Post-hoc cluster-workdir replay invariants (membership log + per-rank
#: telemetry streams from a real run).
FENCE_DISCIPLINE = "fence-discipline"        # eviction/retire implies fence
COLLECTIVE_AGREEMENT = "collective-agreement"  # executed sequences agree

CLUSTER_REPLAY_INVARIANTS = (
    GENERATION_MONOTONIC,
    UNIQUE_RANK_PER_SLOT,
    INCARNATION_BUMP,
    FENCE_DISCIPLINE,
    COMPLETE_IMPLIES_DONE,
    COLLECTIVE_AGREEMENT,
)


@dataclass(frozen=True)
class Violation:
    """One counterexample to one schedule invariant."""

    invariant: str
    trigger_id: int
    message: str
    layer_index: int = -1
    page_id: int = -1
    tensor_id: int = -1
    #: The page's movement history ``[(trigger_id, event), ...]`` up to
    #: the failure point — where the page came from and went.
    provenance: tuple = ()

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "trigger_id": self.trigger_id,
            "layer_index": self.layer_index,
            "page_id": self.page_id,
            "tensor_id": self.tensor_id,
            "message": self.message,
            "provenance": [list(event) for event in self.provenance],
        }


@dataclass
class VerificationResult:
    """Outcome of one symbolic schedule replay."""

    model_name: str
    violations: list[Violation] = field(default_factory=list)
    #: Invariants that were actually checked, in catalog order.
    invariants_checked: tuple = SCHEDULE_INVARIANTS
    #: Replay statistics (task/trigger counts, peak live bytes, budget).
    stats: dict = field(default_factory=dict)
    #: What was verified: "schedule" (symbolic replay), "protocol"
    #: (coordinator model exploration) or "cluster" (post-hoc workdir
    #: replay).
    kind: str = "schedule"

    @property
    def ok(self) -> bool:
        return not self.violations

    def of(self, invariant: str) -> list[Violation]:
        return [v for v in self.violations if v.invariant == invariant]

    def to_dict(self) -> dict:
        """The machine-readable payload (``repro check --json``)."""
        return {
            "ok": self.ok,
            "kind": self.kind,
            "model": self.model_name,
            "invariants": [
                {"name": name, "violations": len(self.of(name))}
                for name in self.invariants_checked
            ],
            "violations": [v.to_dict() for v in self.violations],
            "stats": dict(self.stats),
        }

    def summary(self) -> str:
        """One line for CLI output and run reports."""
        if self.ok:
            return (
                f"{self.kind} verified: {len(self.invariants_checked)} "
                f"invariants, 0 violations"
            )
        worst = self.violations[0]
        return (
            f"{self.kind} INVALID: {len(self.violations)} violation(s), "
            f"first {worst.invariant} at trigger {worst.trigger_id}"
        )
