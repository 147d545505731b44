"""The supervised, self-healing training driver (Section 3.1 made real).

``ResilientTrainer`` wraps the functional engine's Figure-6 loop with the
fault-tolerance ladder the paper claims in production:

1. **retry** — transient tier I/O is absorbed inside the engine by its
   :class:`~repro.resilience.retry.RetryPolicy`;
2. **recover** — anything the retries cannot heal discards the engine,
   restores the latest *good* checkpoint onto a fresh one and replays
   from there. That covers a rank failure, an exhausted retry budget and
   a permanent SSD-tier death; after a tier death every later engine is
   built CPU-only. A dead tier's states come back from the snapshot,
   never from the dying engine, whose sweep may have updated some
   parameters before the tier died. (Re-sharding for a changed rank
   count is the cluster's resume,
   :func:`repro.cluster.worker.load_rank_state`.)

Checkpoints are taken every ``checkpoint_every`` steps through the
crash-consistent ``checkpoint.snapshot`` path; every fault and cure is
a ``faults.*`` counter in a
:class:`~repro.telemetry.registry.MetricsRegistry`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.checkpoint.snapshot import (
    Snapshot,
    latest_good_snapshot,
    list_snapshots,
    save_snapshot,
    snapshot_path,
)
from repro.checkpoint.trainer_state import capture_engine_state, restore_engine_state
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    RankFailedError,
    RetryExhaustedError,
    TierFailedError,
)
from repro.resilience.faults import FaultKind
from repro.resilience.retry import RetryPolicy
from repro.telemetry.registry import MetricsRegistry

#: The fault/cure vocabulary; each is the counter ``faults.<name>``.
FAULT_COUNTERS = (
    "retries", "transient_faults", "torn_writes",
    "latency_injections", "tier_deaths",
    "rank_failures", "recoveries",
    "checkpoints_saved", "checkpoints_restored",
)

#: The counters a fault plan's injection log folds into at the end of a run.
_INJECTED = (
    ("transient_faults", (FaultKind.TRANSIENT_READ, FaultKind.TRANSIENT_WRITE)),
    ("torn_writes", (FaultKind.TORN_WRITE,)),
    ("latency_injections", (FaultKind.LATENCY,)),
)


@dataclass
class ChaosReport:
    """What a supervised run survived, and what it cost."""

    losses: list[float] = field(default_factory=list)
    steps_completed: int = 0
    step_attempts: int = 0
    #: ``faults.*`` counts at the end of the run, keyed without the
    #: prefix (``counters["tier_deaths"]``).
    counters: dict[str, int] = field(default_factory=dict)
    recovery_steps: list[int] = field(default_factory=list)
    fault_log: list = field(default_factory=list)
    #: Watchdog alerts fired during the supervised run (repro.observe).
    alerts: list = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ConfigurationError("no steps completed")
        return self.losses[-1]


class ResilientTrainer:
    """Checkpoint, watch, restore, replay."""

    def __init__(
        self,
        engine_factory,
        checkpoint_dir: str,
        checkpoint_every: int = 10,
        fault_plan=None,
        registry: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        max_recoveries: int = 8,
        keep_checkpoints: int = 3,
        watchdog=None,
    ):
        if checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        #: ``engine_factory(use_ssd: bool) -> AngelModel`` builds a fresh
        #: engine; called again after every unrecoverable crash.
        self._factory = engine_factory
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.plan = fault_plan
        #: The ``faults.*`` counters live here: the run's telemetry
        #: registry when given, else a private one.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._faults = {name: self.registry.counter(f"faults.{name}")
                        for name in FAULT_COUNTERS}
        self._retry = retry_policy or RetryPolicy()
        self.max_recoveries = max_recoveries
        self.keep_checkpoints = keep_checkpoints
        #: Optional repro.observe.Watchdog evaluated at every completed
        #: step; its alerts land in the ChaosReport.
        self.watchdog = watchdog
        self._ssd_alive = True
        os.makedirs(checkpoint_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_checkpoint(self, engine, step: int) -> str:
        """Capture the engine's paged state and persist it atomically."""
        snapshot = self._retry.run(lambda: capture_engine_state(engine, step=step))
        path = snapshot_path(self.checkpoint_dir, step)
        save_snapshot(snapshot, path)
        self._faults["checkpoints_saved"].inc()
        self._prune_checkpoints()
        return path

    def _prune_checkpoints(self) -> None:
        for _, path in list_snapshots(self.checkpoint_dir)[self.keep_checkpoints:]:
            os.unlink(path)

    def latest_good_checkpoint(self) -> tuple[Snapshot, int]:
        """Newest checkpoint whose checksums verify; skips corrupt files."""
        found = latest_good_snapshot(self.checkpoint_dir)
        if found is None:
            raise CheckpointError(
                f"no restorable checkpoint under {self.checkpoint_dir!r}"
            )
        return found

    # ------------------------------------------------------------------
    # Recovery ladder
    # ------------------------------------------------------------------
    def _build(self, prepare):
        """Build a fresh engine and ``prepare`` it (restore a snapshot, or
        take the first checkpoint).

        State registration and ``prepare`` both do SSD-tier I/O. If the
        tier dies under either, it is marked dead and the engine is rebuilt
        CPU-only and prepared again.
        """
        engine = None
        try:
            engine = self._factory(use_ssd=self._ssd_alive)
            prepare(engine)
            return engine
        except TierFailedError:
            self._tier_died()
            self._discard(engine)
        engine = self._factory(use_ssd=False)
        prepare(engine)
        return engine

    def _tier_died(self) -> None:
        """The SSD tier is gone for good: every later engine is CPU-only."""
        self._ssd_alive = False
        self._faults["tier_deaths"].inc()

    @staticmethod
    def _discard(engine) -> None:
        if engine is not None:
            try:
                engine.close()
            except Exception:
                pass  # a dying engine must not block recovery

    def _recover(self, engine, report: ChaosReport, error: BaseException):
        """Discard the engine, restore the latest good snapshot onto a
        fresh one, and rewind the report to the restored step.

        Re-raises ``error`` once ``max_recoveries`` are spent. Returns
        ``(engine, step)`` — the fresh engine and the step to replay from.
        """
        if self._faults["recoveries"].value >= self.max_recoveries:
            self._discard(engine)  # nobody else holds it to close it
            raise error
        self._faults["recoveries"].inc()
        self._discard(engine)
        snapshot, step = self.latest_good_checkpoint()
        self._faults["checkpoints_restored"].inc()
        # The restore writes through the (possibly still-faulty) tier
        # backends; a full re-restore heals any torn/transient write.
        engine = self._build(lambda fresh: self._retry.run(
            lambda: restore_engine_state(snapshot, fresh)))
        del report.losses[step:]
        report.recovery_steps.append(step)
        return engine, step

    # ------------------------------------------------------------------
    # Supervised loop
    # ------------------------------------------------------------------
    def train(self, batches) -> ChaosReport:
        """Run the Figure-6 loop over ``batches``, surviving the plan.

        ``batches`` must be indexable (a list), because recovery replays
        from the restored step.
        """
        batches = list(batches)
        report = ChaosReport()
        # An initial checkpoint makes even a step-0 crash recoverable.
        engine = self._build(lambda fresh: self.save_checkpoint(fresh, 0))
        step = 0
        while step < len(batches):
            if self.plan is not None and self.plan.take_rank_failure(step):
                self._faults["rank_failures"].inc()
                engine, step = self._recover(
                    engine, report, RankFailedError(step=step))
                continue
            report.step_attempts += 1
            try:
                loss = engine(batches[step])
                engine.backward(loss)
                engine.step()
                report.losses.append(loss.item())
                step += 1
                if self.watchdog is not None:
                    report.alerts += self.watchdog.observe_engine(engine, step=step)
                if step % self.checkpoint_every == 0:
                    self.save_checkpoint(engine, step)
            except (TierFailedError, RetryExhaustedError, CheckpointError) as exc:
                if isinstance(exc, TierFailedError):
                    self._tier_died()
                engine, step = self._recover(engine, report, exc)
        if self.plan is not None:
            for name, kinds in _INJECTED:
                self._faults[name].inc(sum(self.plan.count(k) for k in kinds))
        self._faults["retries"].inc(self._retry.retries)
        report.counters = {name: counter.value
                           for name, counter in self._faults.items()}
        report.steps_completed = step
        self._final_engine = engine
        return report

    def close(self) -> None:
        engine = getattr(self, "_final_engine", None)
        if engine is not None:
            engine.close()
            self._final_engine = None
