"""Static analysis: schedule verification, lint, protocol checking.

Four prongs behind ``repro check``:

- :mod:`repro.analysis.verifier` symbolically replays an Algorithm-1
  :class:`~repro.scheduler.unified.IterationPlan` against the planner's
  own memory model and proves the schedule invariants (or emits
  machine-readable counterexamples with trigger id and page
  provenance).
- :mod:`repro.analysis.lint` AST-scans the repo for cross-thread
  shared-state races (SA001), lock-order cycles (SA002), spawn-boundary
  pickling hazards (SA003), shared-memory lifecycle leaks (SA004),
  unbounded blocking receives (SA005) and discarded timeout results
  (SA006), gated by a checked-in baseline
  (:mod:`repro.analysis.baseline`).
- :mod:`repro.analysis.protocol` model-checks the cluster coordinator's
  membership protocol — exhaustive bounded-depth exploration of the
  *same* transition-rule table the threaded coordinator dispatches
  (:data:`repro.cluster.rules.RULES`) against the membership invariant
  catalog, with minimal action-trace counterexamples.
- :mod:`repro.analysis.protocol.collective_verifier` replays finished
  cluster workdirs (membership log + per-rank telemetry) against the
  fencing discipline and checks the executed collectives agree.
"""

from repro.analysis.baseline import compare, load_baseline, save_baseline
from repro.analysis.invariants import (
    CLUSTER_REPLAY_INVARIANTS,
    LINT_RULES,
    PROTOCOL_INVARIANTS,
    SCHEDULE_INVARIANTS,
    VerificationResult,
    Violation,
)
from repro.analysis.lint import ConcurrencyLinter, LintFinding, lint_tree
from repro.analysis.protocol import (
    ProtocolConfig,
    ProtocolExplorer,
    explore_protocol,
    verify_cluster_workdir,
)
from repro.analysis.verifier import ScheduleVerifier, verify_plan

__all__ = [
    "CLUSTER_REPLAY_INVARIANTS",
    "ConcurrencyLinter",
    "LINT_RULES",
    "LintFinding",
    "PROTOCOL_INVARIANTS",
    "ProtocolConfig",
    "ProtocolExplorer",
    "SCHEDULE_INVARIANTS",
    "ScheduleVerifier",
    "VerificationResult",
    "Violation",
    "compare",
    "explore_protocol",
    "lint_tree",
    "load_baseline",
    "save_baseline",
    "verify_cluster_workdir",
    "verify_plan",
]
