"""The supervised, self-healing training driver (Section 3.1 made real).

``ResilientTrainer`` wraps the functional engine's Figure-6 loop with the
fault-tolerance ladder the paper claims in production:

1. **retry** — transient tier I/O is absorbed inside the engine by its
   :class:`~repro.resilience.retry.RetryPolicy`;
2. **degrade** — a permanent SSD-tier death rebuilds the FP32 states on
   the surviving CPU tier (:meth:`AngelModel.degrade_tier`) and replays
   the interrupted step;
3. **recover** — a rank failure (or an exhausted retry budget) discards
   the engine, restores the latest *good* checkpoint and replays from
   there. (Re-sharding for a changed rank count is the cluster's resume,
   :func:`repro.cluster.worker.load_rank_state`.)

Checkpoints are taken every ``checkpoint_every`` steps through the
crash-consistent ``checkpoint.snapshot`` path; every cure is counted in
:class:`~repro.metrics.FaultCounters` and published as a completion event
on a :class:`~repro.runtime.events.EventBus`.
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
from repro.hardware.device import DeviceKind
from repro.metrics import FaultCounters
from repro.resilience.retry import RetryPolicy
from repro.runtime.events import EventBus


@dataclass
class ChaosReport:
    """What a supervised run survived, and what it cost."""

    losses: list[float] = field(default_factory=list)
    steps_completed: int = 0
    step_attempts: int = 0
    counters: FaultCounters = field(default_factory=FaultCounters)
    recovery_steps: list[int] = field(default_factory=list)
    degraded: bool = False
    fault_log: list = field(default_factory=list)
    #: Watchdog alerts fired during the supervised run (repro.observe).
    alerts: list = field(default_factory=list)
    #: Advisory actions derived from sustained alerts — e.g. a retry
    #: storm or a saturated SSD edge recommending ``degrade_tier``. The
    #: supervisor never acts on these automatically.
    recommendations: list[str] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ConfigurationError("no steps completed")
        return self.losses[-1]


class ResilientTrainer:
    """Checkpoint, watch, degrade, restore, replay."""

    def __init__(
        self,
        engine_factory,
        checkpoint_dir: str,
        checkpoint_every: int = 10,
        fault_plan=None,
        counters: FaultCounters | None = None,
        bus: EventBus | None = None,
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
        self.counters = counters if counters is not None else FaultCounters()
        self.bus = bus if bus is not None else EventBus()
        self._retry = retry_policy or RetryPolicy()
        self.max_recoveries = max_recoveries
        self.keep_checkpoints = keep_checkpoints
        #: Optional repro.observe.Watchdog evaluated at every completed
        #: step; its alerts land in the ChaosReport, and sustained
        #: SSD-latency / retry-storm alerts surface a ``degrade_tier``
        #: recommendation (never an automatic action).
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
        self.counters.checkpoints_saved += 1
        # Event names carry the save sequence number, not the step — a
        # replayed step can checkpoint the same boundary twice, and events
        # are one-shot latches.
        self.bus.complete(
            f"resilience.checkpoint.{self.counters.checkpoints_saved}.step{step}"
        )
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
    def _build(self):
        """Build a fresh engine, falling back to CPU-only if the SSD tier
        dies during construction (state registration does tier I/O)."""
        try:
            return self._factory(use_ssd=self._ssd_alive)
        except TierFailedError:
            self._ssd_alive = False
            self.counters.tier_deaths += 1
            return self._factory(use_ssd=False)

    def _degrade(self, engine) -> None:
        """Tier died: rebuild the FP32 states on the CPU tier."""
        self._ssd_alive = False
        self.counters.tier_deaths += 1
        engine.degrade_tier(DeviceKind.SSD, DeviceKind.CPU)
        self.counters.degradations += 1
        self.bus.complete(f"resilience.degrade.{self.counters.degradations}")

    def _recover(self, engine):
        """Discard the engine, restore the latest good snapshot, replay.

        Returns ``(engine, step)`` — the fresh engine and the step to
        resume from.
        """
        self.counters.recoveries += 1
        if engine is not None:
            try:
                engine.close()
            except Exception:
                pass  # a dying engine must not block recovery
        snapshot, step = self.latest_good_checkpoint()
        self.counters.checkpoints_restored += 1
        engine = self._build()
        # The restore writes through the (possibly still-faulty) tier
        # backends; a full re-restore heals any torn/transient write.
        self._retry.run(lambda: restore_engine_state(snapshot, engine))
        self.bus.complete(f"resilience.recovery.{self.counters.recoveries}")
        return engine, step

    # ------------------------------------------------------------------
    # Health watching (repro.observe)
    # ------------------------------------------------------------------
    def _watch(self, engine, step: int, report: ChaosReport) -> None:
        """Run the watchdog at a step boundary; collect alerts + advice."""
        if self.watchdog is None:
            return
        from repro.observe.alerts import degrade_recommendation

        for alert in self.watchdog.observe_engine(engine, step=step):
            report.alerts.append(alert)
            recommendation = degrade_recommendation(alert)
            if recommendation and recommendation not in report.recommendations:
                report.recommendations.append(recommendation)

    # ------------------------------------------------------------------
    # Supervised loop
    # ------------------------------------------------------------------
    def train(self, batches) -> ChaosReport:
        """Run the Figure-6 loop over ``batches``, surviving the plan.

        ``batches`` must be indexable (a list), because recovery replays
        from the restored step.
        """
        batches = list(batches)
        report = ChaosReport(counters=self.counters)
        engine = self._build()
        step = 0
        # An initial checkpoint makes even a step-0 crash recoverable.
        self.save_checkpoint(engine, step)
        while step < len(batches):
            if self.plan is not None and self.plan.take_rank_failure(step):
                self.counters.rank_failures += 1
                self.bus.complete(
                    f"resilience.rank_failure.{self.counters.rank_failures}"
                )
                if self.counters.recoveries >= self.max_recoveries:
                    raise RankFailedError(step=step)
                engine, step = self._recover(engine)
                del report.losses[step:]
                report.recovery_steps.append(step)
                continue
            report.step_attempts += 1
            try:
                loss = engine(batches[step])
                engine.backward(loss)
                engine.step()
                report.losses.append(loss.item())
                step += 1
                self._watch(engine, step, report)
                if step % self.checkpoint_every == 0:
                    self.save_checkpoint(engine, step)
            except TierFailedError:
                self._degrade(engine)
                report.degraded = True
                continue  # replay the interrupted step on the CPU tier
            except (RetryExhaustedError, CheckpointError):
                if self.counters.recoveries >= self.max_recoveries:
                    raise
                engine, step = self._recover(engine)
                del report.losses[step:]
                report.recovery_steps.append(step)
        if self.plan is not None:
            self.counters.absorb_plan(self.plan)
        self.counters.retries += self._retry.retries
        report.steps_completed = step
        self._final_engine = engine
        return report

    def close(self) -> None:
        engine = getattr(self, "_final_engine", None)
        if engine is not None:
            engine.close()
            self._final_engine = None
