"""Fault injection, retry/backoff and tier-death restores."""

import sys
import threading

import numpy as np
import pytest

from repro.engine.angel import AngelConfig, initialize
from repro.errors import (
    ConfigurationError,
    RetryExhaustedError,
    TierFailedError,
    TransientIOError,
)
from repro.hardware.device import DeviceKind
from repro.memory.allocator import PageAllocator
from repro.memory.pool import DevicePool
from repro.nn import MixedPrecisionAdam, TinyTransformerLM, lm_synthetic_batches
from repro.resilience import (
    FaultKind,
    FaultPlan,
    FaultyBackend,
    RetryPolicy,
    inject_faults,
)
from repro.units import KiB, MiB

PAGE = 4 * KiB


def no_sleep(_seconds):
    pass


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        policy = RetryPolicy(max_attempts=5, sleep=no_sleep)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientIOError("flake")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert calls["n"] == 3
        assert policy.retries == 2

    def test_exhaustion_raises_with_cause(self):
        policy = RetryPolicy(max_attempts=3, sleep=no_sleep)

        def always_fails():
            raise TransientIOError("persistent")

        with pytest.raises(RetryExhaustedError) as info:
            policy.run(always_fails)
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, TransientIOError)

    def test_permanent_errors_are_not_retried(self):
        policy = RetryPolicy(max_attempts=5, sleep=no_sleep)
        calls = {"n": 0}

        def dead():
            calls["n"] += 1
            raise TierFailedError("ssd")

        with pytest.raises(TierFailedError):
            policy.run(dead)
        assert calls["n"] == 1

    def test_backoff_grows_and_is_capped(self):
        policy = RetryPolicy(
            base_delay=0.001, multiplier=2.0, max_delay=0.004, jitter=0.0,
            sleep=no_sleep,
        )
        assert policy.backoff(1) == pytest.approx(0.001)
        assert policy.backoff(2) == pytest.approx(0.002)
        assert policy.backoff(5) == pytest.approx(0.004)  # capped

    def test_jitter_is_seed_deterministic(self):
        a = [RetryPolicy(seed=7, sleep=no_sleep).backoff(i) for i in range(1, 5)]
        b = [RetryPolicy(seed=7, sleep=no_sleep).backoff(i) for i in range(1, 5)]
        assert a == b

    def test_deadline_bounds_total_time(self):
        policy = RetryPolicy(
            max_attempts=100, base_delay=10.0, deadline=0.01, sleep=no_sleep
        )
        with pytest.raises(RetryExhaustedError):
            policy.run(lambda: (_ for _ in ()).throw(TransientIOError("x")))

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        def drive(plan):
            injected = []
            for _ in range(200):
                try:
                    plan.on_io("ssd", "write", 64)
                except TransientIOError:
                    injected.append(plan.ops_seen)
            return injected

        first = drive(FaultPlan(seed=3, transient_write_rate=0.05))
        second = drive(FaultPlan(seed=3, transient_write_rate=0.05))
        assert first and first == second

    def test_transient_budget_is_respected(self):
        plan = FaultPlan(seed=0, transient_read_rate=1.0, max_transients=3)
        hits = 0
        for _ in range(10):
            try:
                plan.on_io("ssd", "read", 8)
            except TransientIOError:
                hits += 1
        assert hits == 3
        assert plan.count(FaultKind.TRANSIENT_READ) == 3

    def test_tier_death_is_permanent(self):
        plan = FaultPlan(seed=0, die_after_ops=2)
        plan.on_io("ssd", "read", 8)
        plan.on_io("ssd", "read", 8)
        for _ in range(3):
            with pytest.raises(TierFailedError):
                plan.on_io("ssd", "read", 8)
        assert plan.tier_dead("ssd")
        assert plan.count(FaultKind.TIER_DEATH) == 1  # logged once

    def test_rank_failure_fires_exactly_once(self):
        plan = FaultPlan(seed=0, rank_failure_at_step=4)
        assert not plan.take_rank_failure(3)
        assert plan.take_rank_failure(4)
        assert not plan.take_rank_failure(4)

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(transient_read_rate=1.5)

    @pytest.mark.parametrize("fields", [
        dict(die_after_ops=-5), dict(max_transients=-1),
        dict(max_torn_writes=-1),
    ])
    def test_rejects_negative_op_counts_and_budgets(self, fields):
        with pytest.raises(ConfigurationError):
            FaultPlan(**fields)

    def test_ops_counted_exactly_across_threads(self):
        """More threads than cores, a tiny switch interval: every request
        is counted and drawn exactly once."""
        plan = FaultPlan(seed=0, latency_rate=1.0)
        threads = [
            threading.Thread(
                target=lambda: [plan.on_io("ssd", "read", 8) for _ in range(500)]
            )
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert plan.ops_seen == 8 * 500
        assert plan.count(FaultKind.LATENCY) == 8 * 500

    def test_latency_sleeps_overlap_across_threads(self):
        """The draw is locked, the sleep is not: two requests' latencies
        overlap, so a read waits beside a write instead of behind it. A
        sleep taken under the plan's lock would break the barrier."""
        both_asleep = threading.Barrier(2, timeout=10)
        plan = FaultPlan(
            seed=0, latency_rate=1.0, latency_seconds=1.0,
            transient_write_rate=1.0,
            sleep=lambda _seconds: both_asleep.wait(),
        )
        errors = []

        def request(op):
            try:
                plan.on_io("ssd", op, 8)
            except Exception as exc:  # recorded for the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=request, args=(op,))
            for op in ("read", "write")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        # The injected write error is raised after the (shared) sleep.
        assert [type(exc) for exc in errors] == [TransientIOError]
        assert not both_asleep.broken


class TestFaultyBackend:
    def _file_pool(self, plan):
        pool = DevicePool(DeviceKind.SSD, 8 * PAGE, PAGE, backend="file")
        inject_faults(pool, plan)
        return pool

    def test_torn_write_heals_on_full_rewrite(self):
        plan = FaultPlan(seed=0, torn_write_rate=1.0, max_torn_writes=1)
        with self._file_pool(plan) as pool:
            storage = pool.acquire_storage(PAGE)
            payload = bytes(range(256)) * (PAGE // 256)
            with pytest.raises(TransientIOError):
                storage.write(0, payload)
            # The torn write landed a strict prefix of the bytes.
            assert storage.read(0, PAGE) != payload
            storage.write(0, payload)  # the retry
            assert storage.read(0, PAGE) == payload
        assert plan.count(FaultKind.TORN_WRITE) == 1

    def test_torn_vectored_write_heals_bit_identically(self):
        """One request over three tensors (shared tail pages included) is
        one plan decision: torn, it lands exactly the first half of its
        bytes in request order; retried whole, it lands all of them."""
        from repro.memory.tensor import gather, scatter

        plan = FaultPlan(seed=0, torn_write_rate=1.0, max_torn_writes=2)
        ssd = DevicePool(DeviceKind.SSD, 16 * PAGE, PAGE, backend="file")
        inject_faults(ssd, plan)
        with PageAllocator({DeviceKind.SSD: ssd}) as allocator:
            shape = (PAGE // 4 + 100,)  # one page plus a shareable tail
            tensors = [
                allocator.allocate(shape, np.float32, DeviceKind.SSD)
                for _ in range(3)
            ]
            assert len({id(p) for t in tensors for p in t.page_list}) < 6
            arrays = [
                np.arange(shape[0], dtype=np.float32) + 1 + k * shape[0]
                for k in range(3)
            ]

            def landed() -> bytes:
                outs = [np.empty(shape, np.float32) for _ in tensors]
                gather(tensors, outs)
                return b"".join(out.tobytes() for out in outs)

            payload = b"".join(a.tobytes() for a in arrays)
            with pytest.raises(TransientIOError, match="torn"):
                scatter(tensors, arrays)
            half = len(payload) // 2
            assert landed() == payload[:half] + bytes(len(payload) - half)
            assert plan.ops_seen == 2  # the write and this read

            policy = RetryPolicy(max_attempts=3, sleep=no_sleep)
            policy.run(lambda: scatter(tensors, arrays))  # torn, then whole
            assert policy.retries == 1
            assert landed() == payload
        assert plan.count(FaultKind.TORN_WRITE) == 2

    def test_dead_tier_raises_on_every_access(self):
        plan = FaultPlan(seed=0)
        with self._file_pool(plan) as pool:
            storage = pool.acquire_storage(PAGE)
            storage.write(0, b"x" * PAGE)
            plan.kill_tier("ssd")
            with pytest.raises(TierFailedError):
                storage.read(0, 16)
            with pytest.raises(TierFailedError):
                storage.write(0, b"y")

    def test_wrap_backend_preserves_close(self):
        plan = FaultPlan(seed=0)
        pool = DevicePool(DeviceKind.SSD, 8 * PAGE, PAGE, backend="file")
        path = pool._backend.path
        inject_faults(pool, plan)
        assert isinstance(pool._backend, FaultyBackend)
        pool.close()
        import os

        assert not os.path.exists(path)


class TestAllocatorRetry:
    def _pools(self, plan):
        ram = DevicePool(DeviceKind.CPU, 8 * PAGE, PAGE, backend="ram")
        ssd = DevicePool(DeviceKind.SSD, 8 * PAGE, PAGE, backend="file")
        inject_faults(ssd, plan)
        return {DeviceKind.CPU: ram, DeviceKind.SSD: ssd}

    def test_move_retries_transient_faults(self):
        plan = FaultPlan(seed=0, transient_write_rate=1.0, max_transients=2)
        policy = RetryPolicy(max_attempts=5, sleep=no_sleep)
        with PageAllocator(self._pools(plan), retry_policy=policy) as allocator:
            tensor = allocator.allocate((PAGE // 4,), np.float32, DeviceKind.CPU)
            data = np.arange(PAGE // 4, dtype=np.float32)
            tensor.write_array(data)
            allocator.move_pages([tensor], DeviceKind.SSD)
            np.testing.assert_array_equal(tensor.read_array(), data)
        assert policy.retries >= 1

    def test_move_without_policy_propagates(self):
        plan = FaultPlan(seed=0, transient_write_rate=1.0, max_transients=1)
        with PageAllocator(self._pools(plan)) as allocator:
            tensor = allocator.allocate((PAGE // 4,), np.float32, DeviceKind.CPU)
            with pytest.raises(TransientIOError):
                allocator.move_pages([tensor], DeviceKind.SSD)

class TestEngineDegradation:
    def _engine(self, plan=None, policy=None, ssd_bytes=16 * MiB):
        model = TinyTransformerLM(
            vocab_size=16, d_model=16, d_ffn=32, num_heads=2, num_layers=2,
            max_seq=8, seed=0,
        )
        optimizer = MixedPrecisionAdam(model.parameters(), lr=1e-3)
        config = AngelConfig(
            gpu_memory_bytes=4 * MiB, cpu_memory_bytes=64 * MiB,
            ssd_bytes=ssd_bytes, page_bytes=64 * KiB,
            fault_plan=plan, retry_policy=policy,
        )
        return initialize(model, optimizer, config)

    def test_snapshot_restores_ssd_states_on_cpu_exactly(self):
        """The recover rung's engine half: an SSD-tier engine's snapshot
        restores onto a CPU-only engine, which trains on bit for bit."""
        from repro.checkpoint.trainer_state import (
            capture_engine_state,
            restore_engine_state,
        )

        batches = list(lm_synthetic_batches(16, 8, 4, 4, seed=0))

        def step(engine, batch):
            loss = engine(batch)
            engine.backward(loss)
            engine.step()
            return loss.item()

        with self._engine() as engine:
            losses = [step(engine, b) for b in batches]
        with self._engine() as engine:
            replayed = [step(engine, b) for b in batches[:2]]
            snapshot = capture_engine_state(engine, step=2)
        with self._engine(ssd_bytes=0) as survivor:
            assert restore_engine_state(snapshot, survivor) == 2
            assert "ssd" not in survivor.memory_report()
            for managed in survivor._managed:
                assert managed.master.device_kind == DeviceKind.CPU
                np.testing.assert_array_equal(
                    managed.master.read_array(),
                    snapshot.arrays[f"master/{managed.name}"],
                )
            replayed += [step(survivor, b) for b in batches[2:]]
        assert replayed == losses

    def test_engine_retries_transient_state_io(self):
        plan = FaultPlan(seed=1, transient_write_rate=0.05, max_transients=5)
        policy = RetryPolicy(max_attempts=6, sleep=no_sleep)
        engine = self._engine(plan=plan, policy=policy)
        engine.close()
        # Registration alone does enough SSD writes to consume the budget.
        assert plan.count(FaultKind.TRANSIENT_WRITE) == 5
        assert policy.retries >= 5


class TestFaultCounters:
    def test_absorb_plan_folds_injection_log(self, tmp_path):
        """The trainer folds its plan's injection log into ``faults.*``."""
        from repro.resilience import ChaosConfig, run_chaos

        config = ChaosConfig(steps=2, checkpoint_every=2,
                             transient_read_rate=1.0, max_transients=2)
        report = run_chaos(config, str(tmp_path))
        injected = [r for r in report.fault_log
                    if r.kind in (FaultKind.TRANSIENT_READ,
                                  FaultKind.TRANSIENT_WRITE)]
        assert len(injected) == 2
        assert report.counters["transient_faults"] == 2
        assert report.counters["torn_writes"] == 0
