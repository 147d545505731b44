"""Chaos training: seeded fault plans against the supervised driver.

The acceptance bar for the resilience subsystem: with a fixed seed, a run
that suffers transient SSD faults heals bit-for-bit; a run that addition-
ally loses the SSD tier permanently and crashes a rank mid-run restores
checkpoints, replays, finishes, and matches the fault-free losses bit for
bit — with every retry/recovery observable in the counters.
"""

import pytest

from repro.errors import RankFailedError
from repro.resilience import (
    ChaosConfig,
    FaultKind,
    ResilientTrainer,
    engine_factory,
    make_batches,
    make_fault_plan,
    run_chaos,
    run_reference,
)


#: Rates are per SSD request. The 2-layer scenario model has 20
#: parameterized modules, so a step issues 40 SSD requests (one vectored
#: read and one write per module), registration 25 (one per parameter)
#: and a checkpoint capture 1: about 350 requests over 8 steps.


def reference_losses(**kwargs):
    kwargs.setdefault("steps", 8)
    kwargs.setdefault("checkpoint_every", 3)
    return run_reference(ChaosConfig(**kwargs))


class TestTransientFaultsHealBitForBit:
    def test_losses_identical_to_fault_free_run(self, tmp_path):
        config = ChaosConfig(
            steps=8, checkpoint_every=3, seed=1,
            transient_read_rate=0.03, transient_write_rate=0.03,
            max_transients=12, torn_write_rate=0.03, max_torn_writes=4,
        )
        reference = reference_losses(seed=1)
        report = run_chaos(config, str(tmp_path))
        assert report.losses == reference  # bit-for-bit
        assert report.counters["transient_faults"] == 12
        assert report.counters["torn_writes"] == 4
        assert report.counters["retries"] >= 12
        assert report.counters["tier_deaths"] == 0
        assert report.counters["recoveries"] == 0

    def test_chaos_runs_are_seed_deterministic(self, tmp_path):
        config = ChaosConfig(
            steps=6, checkpoint_every=2, seed=5,
            transient_read_rate=0.02, max_transients=6,
        )
        first = run_chaos(config, str(tmp_path / "a"))
        second = run_chaos(config, str(tmp_path / "b"))
        assert first.losses == second.losses
        assert [(r.op_index, r.kind) for r in first.fault_log] == [
            (r.op_index, r.kind) for r in second.fault_log
        ]


class TestFullRecoveryLadder:
    # Step 5 spans requests ~190-231: the tier dies inside it and the
    # step-3 checkpoint is restored on a CPU-only engine; the step-7 rank
    # failure then restores the step-6 checkpoint.
    CONFIG = dict(
        steps=10, checkpoint_every=3, seed=3,
        transient_read_rate=0.02, transient_write_rate=0.02,
        max_transients=8, die_after_ops=200, rank_failure_at_step=7,
    )

    def test_tier_death_and_rank_failure_recover_within_tolerance(self, tmp_path):
        """The tolerance is zero: both recoveries replay exactly."""
        config = ChaosConfig(**self.CONFIG)
        reference = reference_losses(steps=10, seed=3)
        report = run_chaos(config, str(tmp_path))
        counters = report.counters

        # The run completed all steps despite losing the SSD tier and a rank.
        assert report.steps_completed == 10
        assert report.recovery_steps == [3, 6]

        # Every rung of the ladder is observable in the counters.
        assert counters["tier_deaths"] == 1
        assert counters["rank_failures"] == 1
        assert counters["recoveries"] == 2
        assert counters["checkpoints_restored"] == 2
        assert counters["retries"] >= 1
        assert counters["checkpoints_saved"] >= 2

        # One restore step per recovery.
        assert len(report.recovery_steps) == counters["recoveries"]

        assert report.losses == reference  # bit-for-bit

    def test_ladder_is_deterministic(self, tmp_path):
        config = ChaosConfig(**self.CONFIG)
        first = run_chaos(config, str(tmp_path / "a"))
        second = run_chaos(config, str(tmp_path / "b"))
        assert first.losses == second.losses
        assert first.recovery_steps == second.recovery_steps

    def test_fault_log_records_the_injected_schedule(self, tmp_path):
        config = ChaosConfig(**self.CONFIG)
        report = run_chaos(config, str(tmp_path))
        kinds = [record.kind for record in report.fault_log]
        assert FaultKind.TIER_DEATH in kinds
        assert FaultKind.RANK_FAILURE in kinds
        assert any(
            k in kinds
            for k in (FaultKind.TRANSIENT_READ, FaultKind.TRANSIENT_WRITE)
        )


class TestRecoveryMechanics:
    def test_rank_failure_without_checkpoint_dir_contents_uses_initial(self, tmp_path):
        # Failure before the first periodic checkpoint: the step-0 initial
        # checkpoint makes the run recoverable from scratch.
        config = ChaosConfig(steps=5, checkpoint_every=10, seed=2,
                             rank_failure_at_step=2)
        reference = reference_losses(steps=5, checkpoint_every=10, seed=2)
        report = run_chaos(config, str(tmp_path))
        assert report.steps_completed == 5
        assert report.recovery_steps == [0]
        # Restore + replay of deterministic batches reproduces the run.
        assert report.losses == reference

    def test_corrupt_newest_checkpoint_falls_back_to_older(self, tmp_path):
        config = ChaosConfig(steps=6, checkpoint_every=2, seed=4)
        plan = make_fault_plan(
            ChaosConfig(steps=6, checkpoint_every=2, seed=4, rank_failure_at_step=5)
        )
        trainer = ResilientTrainer(
            engine_factory(config, plan, None),
            checkpoint_dir=str(tmp_path),
            checkpoint_every=2,
            fault_plan=plan,
        )
        batches = make_batches(config)
        # Corrupt the newest checkpoint as soon as it lands by truncating
        # it behind the trainer's back before the scheduled rank failure.
        original_save = trainer.save_checkpoint

        def sabotaging_save(engine, step):
            path = original_save(engine, step)
            if step == 4:
                with open(path, "r+b") as handle:
                    handle.truncate(100)
            return path

        trainer.save_checkpoint = sabotaging_save
        report = trainer.train(batches)
        trainer.close()
        assert report.steps_completed == 6
        # Fell back past the corrupt step-4 file to the step-2 checkpoint.
        assert report.recovery_steps == [2]

    def test_max_recoveries_guard_reraises(self, tmp_path):
        config = ChaosConfig(steps=4, checkpoint_every=2, seed=6,
                             rank_failure_at_step=1)
        plan = make_fault_plan(config)
        trainer = ResilientTrainer(
            engine_factory(config, plan, None),
            checkpoint_dir=str(tmp_path),
            checkpoint_every=2,
            fault_plan=plan,
            max_recoveries=0,
        )
        with pytest.raises(RankFailedError):
            trainer.train(make_batches(config))


class TestTierDeathReplaysExactly:
    """A dead SSD tier takes the recover rung: the newest good snapshot is
    restored on a CPU-only engine and replayed, whenever the tier dies."""

    # Requests 1-25 register, 26 is the initial checkpoint capture, each
    # step issues 40 (a sweep read, then a write, per module), 147 is the
    # step-3 capture; the step-4 rank failure re-registers (188-212) and
    # restores (213) before steps 4-5 replay and 334 captures step 6.
    CONFIG = dict(steps=6, checkpoint_every=3, seed=2, rank_failure_at_step=4)

    @pytest.fixture(scope="class")
    def reference(self):
        return run_reference(ChaosConfig(**self.CONFIG))

    @pytest.mark.parametrize("die_after_ops", [
        0,    # registration
        25,   # initial checkpoint capture
        26,   # first sweep read
        27,   # first sweep write
        60, 99,
        146,  # step-3 checkpoint capture
        150, 187,
        200,  # registration after the rank failure
        212,  # the rank failure's restore
        240, 300,
        333,  # step-6 checkpoint capture
    ])
    def test_every_tier_death_replays_bit_for_bit(
        self, die_after_ops, reference, tmp_path
    ):
        config = ChaosConfig(die_after_ops=die_after_ops, **self.CONFIG)
        report = run_chaos(config, str(tmp_path))
        assert report.steps_completed == 6
        assert report.counters["tier_deaths"] == 1
        assert report.losses == reference

    def test_tier_death_during_recovery_restore_rebuilds_on_cpu(
        self, reference, tmp_path
    ):
        """Regression: a tier dying under the rank failure's restore used
        to escape the supervisor as a TierFailedError."""
        config = ChaosConfig(die_after_ops=212, **self.CONFIG)
        report = run_chaos(config, str(tmp_path))
        assert [r.kind for r in report.fault_log] == [
            FaultKind.RANK_FAILURE, FaultKind.TIER_DEATH]
        assert report.counters["recoveries"] == 1
        assert report.counters["tier_deaths"] == 1
        assert report.recovery_steps == [3]
        assert report.losses == reference
