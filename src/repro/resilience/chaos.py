"""Canned chaos scenarios: one knob-set, two runs, comparable losses.

``run_reference`` trains a tiny functional model fault-free;
``run_chaos`` trains the *same* model, seed and batches under a
:class:`~repro.resilience.faults.FaultPlan` supervised by
:class:`~repro.resilience.trainer.ResilientTrainer`. Transient faults are
healed by full rewrites, and every other fault (a dead tier, a crashed
rank) restores a snapshot and replays deterministic batches, so a chaos
run matches the reference bit for bit. The ``repro chaos`` CLI
subcommand and the chaos tests are both thin wrappers over this
module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.angel import AngelConfig
from repro.errors import ConfigurationError
from repro.fleet.factory import JobFactory, JobWorkload
from repro.metrics import FaultCounters
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.resilience.trainer import ChaosReport, ResilientTrainer
from repro.units import KiB, MiB


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos scenario: workload knobs plus the fault schedule."""

    steps: int = 16
    checkpoint_every: int = 4
    seed: int = 0
    layers: int = 2
    lr: float = 2e-3
    vocab_size: int = 32
    seq_len: int = 16
    batch_size: int = 8
    gpu_memory_bytes: int = 4 * MiB
    cpu_memory_bytes: int = 64 * MiB
    ssd_bytes: int = 32 * MiB
    page_bytes: int = 64 * KiB
    # Fault schedule (all off by default — the reference scenario).
    transient_read_rate: float = 0.0
    transient_write_rate: float = 0.0
    max_transients: int | None = None
    torn_write_rate: float = 0.0
    max_torn_writes: int | None = None
    latency_rate: float = 0.0
    latency_seconds: float = 0.0
    die_after_ops: int | None = None
    rank_failure_at_step: int | None = None

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        at = self.rank_failure_at_step
        if at is not None and not 0 <= at < self.steps:
            raise ConfigurationError(
                f"rank_failure_at_step {at} is outside the run's steps "
                f"[0, {self.steps})"
            )
        # The fault schedule's own rules, checked before any training.
        make_fault_plan(self)


def make_workload(config: ChaosConfig) -> JobWorkload:
    """The scenario's model/data recipe as a fleet ``JobWorkload``."""
    return JobWorkload(
        vocab_size=config.vocab_size,
        layers=config.layers,
        seq_len=config.seq_len,
        batch_size=config.batch_size,
        lr=config.lr,
        seed=config.seed,
    )


def make_batches(config: ChaosConfig) -> list:
    """The scenario's deterministic batch stream (shared by both runs)."""
    return JobFactory(make_workload(config)).batches(config.steps)


def make_fault_plan(config: ChaosConfig) -> FaultPlan:
    return FaultPlan(
        seed=config.seed,
        transient_read_rate=config.transient_read_rate,
        transient_write_rate=config.transient_write_rate,
        max_transients=config.max_transients,
        torn_write_rate=config.torn_write_rate,
        max_torn_writes=config.max_torn_writes,
        latency_rate=config.latency_rate,
        latency_seconds=config.latency_seconds,
        die_after_ops=config.die_after_ops,
        rank_failure_at_step=config.rank_failure_at_step,
    )


def engine_factory(config: ChaosConfig, plan: FaultPlan | None, policy: RetryPolicy | None):
    """``factory(use_ssd) -> AngelModel`` building a fresh engine+model.

    Engine construction is the shared :class:`repro.fleet.JobFactory`
    recipe, so the chaos harness, the fleet gateway and the CLI all
    rebuild identical engines from identical knobs.
    """
    job_factory = JobFactory(make_workload(config))

    def factory(use_ssd: bool = True):
        angel = AngelConfig(
            gpu_memory_bytes=config.gpu_memory_bytes,
            cpu_memory_bytes=config.cpu_memory_bytes,
            ssd_bytes=config.ssd_bytes if use_ssd else 0,
            page_bytes=config.page_bytes,
            fault_plan=plan,
            retry_policy=policy,
        )
        return job_factory.engine(angel)

    return factory


def run_reference(config: ChaosConfig) -> list[float]:
    """The fault-free run: same model, seed and batches, no supervision."""
    engine = engine_factory(config, plan=None, policy=None)(use_ssd=True)
    losses = []
    try:
        for batch in make_batches(config):
            loss = engine(batch)
            engine.backward(loss)
            engine.step()
            losses.append(loss.item())
    finally:
        engine.close()
    return losses


def run_chaos(
    config: ChaosConfig,
    checkpoint_dir: str | None = None,
    counters: FaultCounters | None = None,
    telemetry=None,
    watchdog=None,
) -> ChaosReport:
    """Run the scenario under supervision; returns the ChaosReport.

    Checkpoints land in ``checkpoint_dir`` (a fresh temp dir when
    omitted). When ``telemetry`` is given, fault counters and retry latencies flow
    through its metrics registry — ``telemetry.dump()`` afterwards is one
    unified view of ``faults.*``, ``retry.*`` and any span breakdowns —
    and a :class:`~repro.observe.watchdog.Watchdog` (built automatically
    unless one is passed) watches every step: its alerts land in
    ``report.alerts``.
    """
    if checkpoint_dir is None:
        import tempfile

        checkpoint_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    plan = make_fault_plan(config)
    policy = RetryPolicy(
        max_attempts=6, base_delay=1e-4, max_delay=2e-3, seed=config.seed,
        telemetry=telemetry,
    )
    if telemetry is not None and counters is None:
        counters = FaultCounters(registry=telemetry.registry)
    if telemetry is not None and watchdog is None:
        from repro.observe.watchdog import Watchdog

        watchdog = Watchdog(telemetry=telemetry)
    trainer = ResilientTrainer(
        engine_factory(config, plan, policy),
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=config.checkpoint_every,
        fault_plan=plan,
        counters=counters,
        retry_policy=policy,
        watchdog=watchdog,
    )
    try:
        report = trainer.train(make_batches(config))
    finally:
        trainer.close()
    report.fault_log = list(plan.log)
    return report
