"""Fault injection and self-healing training (Section 3.1's claims, live).

The passive half of fault tolerance — atomic snapshots, exact ZeRO
re-sharding — lives in ``repro.checkpoint``; this package is the active
half:

- :mod:`repro.resilience.faults` — seeded, deterministic fault injection
  into the tier backends (transient I/O, latency, torn writes, tier
  death) and scheduled rank failures;
- :mod:`repro.resilience.retry` — exponential backoff with jitter and a
  deadline, applied to page moves and FP32-state round trips;
- :mod:`repro.resilience.trainer` — the supervised driver: checkpoint
  every K steps; on a rank crash, a spent retry budget or a dead tier,
  restore the latest good checkpoint and replay;
- :mod:`repro.resilience.chaos` — canned scenarios backing the
  ``repro chaos`` CLI subcommand and the chaos test suite.
"""

from repro.resilience.chaos import (
    ChaosConfig,
    engine_factory,
    make_batches,
    make_fault_plan,
    run_chaos,
    run_reference,
)
from repro.resilience.faults import (
    FaultKind,
    FaultPlan,
    FaultRecord,
    FaultyBackend,
    inject_faults,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.trainer import ChaosReport, ResilientTrainer

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "FaultKind",
    "FaultPlan",
    "FaultRecord",
    "FaultyBackend",
    "ResilientTrainer",
    "RetryPolicy",
    "engine_factory",
    "inject_faults",
    "make_batches",
    "make_fault_plan",
    "run_chaos",
    "run_reference",
]
