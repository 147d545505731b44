"""Pipelined runtime: prefetch worker, writeback queue, live planning.

The load-bearing property is *prefetch determinism*: driving the engine
from a planned schedule with background workers must be bit-identical to
the synchronous demand-fetch path — page movement is byte-preserving, so
reordering it can change timing but never numerics, including when an
injected fault plan makes the SSD tier misbehave under retries.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.engine import AngelConfig, initialize
from repro.errors import ConfigurationError, SchedulingError
from repro.hardware.device import DeviceKind
from repro.lockfree import WorkQueue
from repro.nn import MixedPrecisionAdam, TinyTransformerLM, lm_synthetic_batches
from repro.resilience import FaultPlan, RetryPolicy
from repro.runtime import MoveGroup, PrefetchWorker, WritebackQueue, coalesce_schedule
from repro.units import KiB, MiB


def tiny_model(seed=1, num_layers=2):
    return TinyTransformerLM(
        vocab_size=16, d_model=16, d_ffn=32, num_heads=2, num_layers=num_layers,
        max_seq=8, seed=seed,
    )


def train(steps=5, seed=3, **config_kwargs):
    """Train the tiny workload; returns (losses, params, engine facts)."""
    model = tiny_model(seed=seed)
    opt = MixedPrecisionAdam(model.parameters(), lr=2e-3)
    defaults = dict(
        gpu_memory_bytes=2 * MiB,
        cpu_memory_bytes=16 * MiB,
        page_bytes=32 * KiB,
    )
    defaults.update(config_kwargs)
    engine = initialize(model, opt, AngelConfig(**defaults))
    losses = []
    try:
        for batch in lm_synthetic_batches(16, 8, 4, steps, seed=seed + 1):
            loss = engine(batch)
            engine.backward(loss)
            engine.step()
            losses.append(loss.item())
        params = {m.name: m.param.data.copy() for m in engine._managed}
        facts = {
            "plan": engine.executed_plan(),
            "report": engine.pipeline_report(),
            "gpu_budget": engine.config.gpu_memory_bytes,
        }
    finally:
        engine.close()
    return losses, params, facts


class TestPrefetchDeterminism:
    def test_pipelined_bit_identical_to_sync(self):
        sync_losses, sync_params, _ = train(pipeline=False)
        pipe_losses, pipe_params, facts = train(pipeline=True)
        assert sync_losses == pipe_losses
        for name, array in sync_params.items():
            assert np.array_equal(array, pipe_params[name]), name
        assert facts["report"]["enabled"]

    def test_bit_identical_on_ssd_tier(self, tmp_path):
        common = dict(
            ssd_bytes=16 * MiB, ssd_path=str(tmp_path / "sync.bin"),
        )
        sync_losses, sync_params, _ = train(pipeline=False, **common)
        common["ssd_path"] = str(tmp_path / "pipe.bin")
        pipe_losses, pipe_params, facts = train(pipeline=True, **common)
        assert sync_losses == pipe_losses
        for name, array in sync_params.items():
            assert np.array_equal(array, pipe_params[name]), name
        # The async writeback actually carried state flushes.
        assert facts["report"]["writeback"]["flushed"] > 0

    def test_bit_identical_under_injected_faults(self, tmp_path):
        """Transient SSD faults healed by retries are numerics-neutral.

        The two runs hit fault sites at different I/Os (the pipelined run
        reorders them), but every transient is retried to success, so the
        bytes that land are identical either way.
        """
        def faulty(tag):
            return dict(
                ssd_bytes=16 * MiB,
                ssd_path=str(tmp_path / f"{tag}.bin"),
                fault_plan=FaultPlan(
                    seed=11, transient_read_rate=0.02,
                    transient_write_rate=0.02, max_transients=12,
                ),
                retry_policy=RetryPolicy(
                    max_attempts=8, base_delay=0.001, deadline=5.0,
                ),
            )

        sync_losses, sync_params, _ = train(pipeline=False, **faulty("sync"))
        pipe_losses, pipe_params, _ = train(pipeline=True, **faulty("pipe"))
        assert sync_losses == pipe_losses
        for name, array in sync_params.items():
            assert np.array_equal(array, pipe_params[name]), name

    def test_lock_free_pipelined_matches_lock_free_sync(self):
        kwargs = dict(lock_free=True, update_interval=2, steps=6)
        sync_losses, sync_params, _ = train(pipeline=False, **kwargs)
        pipe_losses, pipe_params, _ = train(pipeline=True, **kwargs)
        assert sync_losses == pipe_losses
        for name, array in sync_params.items():
            assert np.array_equal(array, pipe_params[name]), name


def test_ssd_tier_engages_cache_writeback_and_prefetch():
    """On a GPU pool that holds only part of the planned cache, all three
    pipeline mechanisms carry the run (counts only; ``bench/``'s
    ``ssd_pipeline`` times it)."""
    from repro.fleet.factory import JobFactory, JobWorkload

    def run(pipeline):
        factory = JobFactory(JobWorkload(
            vocab_size=32, layers=2, seq_len=16, batch_size=8,
        ))
        engine = factory.engine(AngelConfig(
            gpu_memory_bytes=5 * MiB, cpu_memory_bytes=64 * MiB,
            ssd_bytes=32 * MiB, page_bytes=64 * KiB, pipeline=pipeline,
        ))
        try:
            losses = []
            for batch in factory.batches(8):
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
                losses.append(loss.item())
            return losses, engine.pipeline_report()
        finally:
            engine.close()

    sync_losses, _ = run(pipeline=False)
    losses, report = run(pipeline=True)
    assert losses == sync_losses
    assert report["cached_layers_live"] > 0
    assert report["writeback"]["flushed"] > 0
    assert report["prefetch"]["prefetched_groups"] > 0
    assert report["prefetch"]["abandoned"] == 0


def bench_shape_factory():
    """The bench's ``ssd_pipeline`` model: 16 uncached layers at 8 MiB."""
    from repro.fleet.factory import JobFactory, JobWorkload

    return JobFactory(JobWorkload(
        layers=4, d_model=64, d_ffn=256, num_heads=4, seq_len=32,
        batch_size=8, vocab_size=64,
    ))


class TestVectoredStateIO:
    """The sweep moves a layer's FP32 states in one SSD request per
    direction, with no lock around the state I/O thread."""

    @staticmethod
    def ssd_engine(factory, plan, **overrides):
        config = dict(
            page_bytes=64 * KiB, cpu_memory_bytes=256 * MiB,
            gpu_memory_bytes=8 * MiB, ssd_bytes=256 * MiB, pipeline=True,
            fault_plan=plan,
        )
        config.update(overrides)
        return factory.engine(AngelConfig(**config))

    @staticmethod
    def step(engine, batch) -> float:
        loss = engine(batch)
        engine.backward(loss)
        engine.step()
        return loss.item()

    def test_ssd_requests_per_step_are_two_per_uncached_layer(self):
        # The bench's ssd_pipeline shape, without the emulated latency.
        factory = bench_shape_factory()
        from repro.telemetry import Telemetry

        plan = FaultPlan(latency_rate=1.0)
        telemetry = Telemetry()
        engine = self.ssd_engine(factory, plan, telemetry=telemetry)
        io = [telemetry.counter(f"io.{op}_bytes", tier="ssd") for op in ("read", "write")]
        try:
            per_step = []
            for batch in factory.batches(4):
                engine.barrier()
                before = (plan.ops_seen, *(c.value for c in io))
                self.step(engine, batch)
                engine.barrier()
                after = (plan.ops_seen, *(c.value for c in io))
                per_step.append(tuple(b - a for a, b in zip(before, after)))
            uncached = [
                t for group in engine._groups for m in group
                for t in (m.master, m.moment1, m.moment2)
                if t.device_kind != DeviceKind.GPU
            ]
            layers = sum(
                any(m.master.device_kind != DeviceKind.GPU for m in group)
                for group in engine._groups
            )
        finally:
            engine.close()
        assert layers == 16
        state_bytes = sum(t.nbytes for t in uncached)
        # One read and one write request per uncached layer, moving
        # exactly the states' bytes each way.
        assert per_step[1:] == [(2 * layers, state_bytes, state_bytes)] * 3

    def test_state_tails_shared_across_layers_bit_identical(self, tmp_path):
        """Tail pages holding two layers' states: one layer's bytes are
        read while the other layer's are written, both unlocked."""
        from repro.fleet.factory import JobFactory, JobWorkload

        def run(pipeline):
            factory = JobFactory(JobWorkload(
                vocab_size=24, d_model=16, d_ffn=40, num_heads=2, seq_len=8,
            ))
            engine = self.ssd_engine(
                factory, FaultPlan(latency_rate=1.0, latency_seconds=0.0005),
                page_bytes=1 * KiB, gpu_memory_bytes=64 * KiB,
                cpu_memory_bytes=4 * MiB, ssd_bytes=4 * MiB,
                pipeline=pipeline, ssd_path=str(tmp_path / f"{pipeline}.bin"),
            )
            try:
                layer_of = {}
                shared = set()
                for layer, group in enumerate(engine._groups):
                    for m in group:
                        for t in (m.master, m.moment1, m.moment2):
                            for page in t.page_list:
                                if layer_of.setdefault(id(page), layer) != layer:
                                    shared.add(id(page))
                losses = [self.step(engine, b) for b in factory.batches(6)]
                params = [m.param.data.copy() for m in engine._managed]
                return losses, params, shared, engine.pipeline_report()
            finally:
                engine.close()

        sync_losses, sync_params, shared, _ = run(pipeline=False)
        losses, params, _, report = run(pipeline=True)
        assert shared  # the premise: some state page spans two layers
        assert report["writeback"]["flushed"] > 0
        assert losses == sync_losses
        for a, b in zip(sync_params, params):
            assert np.array_equal(a, b)

    def test_snapshot_right_after_step_resumes_bit_identical(self, tmp_path):
        """Preempt -> snapshot -> resume of a pipelined SSD engine with
        latency: the snapshot waits for queued flushes (engine.barrier),
        so it never captures states a flush has not yet written."""
        from repro.checkpoint.trainer_state import (
            capture_engine_state,
            restore_engine_state,
        )
        from repro.fleet.factory import JobFactory, JobWorkload

        factory = JobFactory(JobWorkload(layers=2))
        batches = factory.batches(6)

        def engine(tag):
            return self.ssd_engine(
                factory, FaultPlan(latency_rate=1.0, latency_seconds=0.0005),
                gpu_memory_bytes=1 * MiB, ssd_bytes=32 * MiB,
                ssd_path=str(tmp_path / f"{tag}.bin"),
            )

        whole = engine("whole")
        try:
            reference = [self.step(whole, b) for b in batches]
        finally:
            whole.close()
        # A synchronous engine's pages are final when step() returns.
        sync = self.ssd_engine(factory, FaultPlan(), pipeline=False,
                               ssd_path=str(tmp_path / "sync.bin"))
        try:
            for b in batches[:3]:
                self.step(sync, b)
            settled = {f"{prefix}/{m.name}": t.read_array() for m in sync._managed
                       for prefix, t in (("master", m.master), ("m", m.moment1),
                                         ("v", m.moment2))}
        finally:
            sync.close()

        first = engine("first")
        try:
            losses = [self.step(first, b) for b in batches[:3]]
            snapshot = capture_engine_state(first, step=3)
            for name, pages in settled.items():
                assert np.array_equal(snapshot.arrays[name], pages), name
        finally:
            first.close()
        resumed = engine("resumed")
        try:
            assert restore_engine_state(snapshot, resumed) == 3
            losses += [self.step(resumed, b) for b in batches[3:]]
        finally:
            resumed.close()
        assert losses == reference


class TestStateReadAhead:
    """The forward queues each uncached layer's FP32-state read on the
    state I/O thread, behind the previous sweep's writes; the sweep finds
    the states landed."""

    ssd_engine = staticmethod(TestVectoredStateIO.ssd_engine)
    step = staticmethod(TestVectoredStateIO.step)

    @staticmethod
    def counts(engine) -> tuple[int, int, int]:
        engine.barrier()
        report = engine.pipeline_report()
        writeback = report.get("writeback") or {"read_ahead": 0, "flushed": 0}
        return (writeback["read_ahead"], writeback["flushed"],
                report["inline_state_reads"])

    def run_counts(self, steps, **overrides):
        factory = bench_shape_factory()
        engine = self.ssd_engine(factory, FaultPlan(), **overrides)
        try:
            seen = []
            for batch in factory.batches(steps):
                self.step(engine, batch)
                seen.append(self.counts(engine))
        finally:
            engine.close()
        return [tuple(b - a for a, b in zip(before, after))
                for before, after in zip(seen, seen[1:])]

    def test_every_sweep_reads_ahead_and_counters_stay_apart(self):
        # Steps 2-4 run pipelined: 16 reads ahead and 16 writes each,
        # counted apart, and no sweep read falls back to inline.
        assert self.run_counts(4) == [(16, 16, 0)] * 3

    def test_lock_free_reads_ahead_only_before_a_sweeping_step(self):
        deltas = self.run_counts(9, lock_free=True, update_interval=4)
        # The recording step is the 1st; steps 4 and 8 sweep.
        assert deltas == [(0, 0, 0), (0, 0, 0), (16, 16, 0),
                          (0, 0, 0), (0, 0, 0), (0, 0, 0), (16, 16, 0),
                          (0, 0, 0)]

    def test_read_ahead_death_surfaces_at_step_and_replays_exactly(self):
        from repro.checkpoint.trainer_state import (
            capture_engine_state,
            restore_engine_state,
        )
        from repro.errors import TierFailedError
        from repro.resilience import FaultKind

        factory = bench_shape_factory()
        batches = factory.batches(6)
        plan = FaultPlan()
        reference = self.ssd_engine(factory, plan)
        try:
            losses = []
            for index, batch in enumerate(batches):
                losses.append(self.step(reference, batch))
                if index == 2:
                    capture_engine_state(reference, step=3)
                    before_fourth = plan.ops_seen
            params = [m.param.data.copy() for m in reference._managed]
        finally:
            reference.close()

        # The tier dies on the third read ahead of the fourth step.
        dying = FaultPlan(die_after_ops=before_fourth + 2)
        engine = self.ssd_engine(factory, dying)
        try:
            replayed = [self.step(engine, b) for b in batches[:3]]
            snapshot = capture_engine_state(engine, step=3)
            engine.backward(engine(batches[3]))
            with pytest.raises(TierFailedError):
                engine.step()
            assert [r.kind for r in dying.log] == [FaultKind.TIER_DEATH]
            assert dying.log[0].op_index == before_fourth + 3
            # Steps 2 and 3 read 16 layers ahead each; step 4 read two.
            assert engine.pipeline_report()["writeback"]["read_ahead"] == 34
        finally:
            # Teardown re-raises the recorded death once the pipeline is
            # down: close returns, never hangs on the dead I/O thread.
            with pytest.raises(TierFailedError):
                engine.close()

        # The recover rung: the pre-step snapshot on a CPU-only engine.
        survivor = self.ssd_engine(factory, FaultPlan(), ssd_bytes=0)
        try:
            assert restore_engine_state(snapshot, survivor) == 3
            replayed += [self.step(survivor, b) for b in batches[3:]]
            assert survivor.pipeline_report()["inline_state_reads"] == 0
            got = [m.param.data.copy() for m in survivor._managed]
        finally:
            survivor.close()
        assert replayed == losses
        for a, b in zip(params, got):
            assert np.array_equal(a, b)

    def test_restore_after_queued_reads_resumes_bit_identical(self, tmp_path):
        from repro.checkpoint.trainer_state import (
            capture_engine_state,
            restore_engine_state,
        )

        factory = bench_shape_factory()
        batches = factory.batches(6)

        def engine(tag):
            return self.ssd_engine(factory, FaultPlan(),
                                   ssd_path=str(tmp_path / f"{tag}.bin"))

        whole = engine("whole")
        try:
            reference = [self.step(whole, b) for b in batches]
        finally:
            whole.close()
        first = engine("first")
        try:
            losses = [self.step(first, b) for b in batches[:3]]
            snapshot = capture_engine_state(first, step=3)
        finally:
            first.close()
        resumed = engine("resumed")
        try:
            # Diverge, then leave a forward's reads queued at restore.
            for batch in batches[3:5]:
                self.step(resumed, batch)
            resumed(batches[5])
            assert len(resumed._read_ahead) == 16
            assert restore_engine_state(snapshot, resumed) == 3
            assert resumed._read_ahead == {}
            for m in resumed._managed:
                for prefix, t in (("master", m.master), ("m", m.moment1),
                                  ("v", m.moment2)):
                    assert np.array_equal(
                        t.read_array(), snapshot.arrays[f"{prefix}/{m.name}"]
                    ), m.name
            losses += [self.step(resumed, b) for b in batches[3:]]
        finally:
            resumed.close()
        assert losses == reference

    def test_seeded_faults_replay_in_the_same_order(self, tmp_path):
        """Every steady-state SSD request runs on the one state I/O
        thread, so a seeded fault plan replays exactly: the same faults at
        the same requests, the same losses as the fault-free run."""
        factory = bench_shape_factory()
        batches = factory.batches(8)

        def run(tag, **faults):
            plan = FaultPlan(seed=5, **faults)
            requests = []
            on_io = plan.on_io

            def recording(tier, op, nbytes):
                requests.append((op, nbytes))
                return on_io(tier, op, nbytes)

            plan.on_io = recording
            engine = self.ssd_engine(
                factory, plan, ssd_path=str(tmp_path / f"{tag}.bin"),
                retry_policy=RetryPolicy(max_attempts=8, base_delay=0.0001),
            )
            try:
                losses = [self.step(engine, b) for b in batches]
            finally:
                engine.close()
            return losses, plan.log, requests

        faults = dict(transient_read_rate=0.05, transient_write_rate=0.05,
                      max_transients=12)
        clean, _, _ = run("clean")
        losses, log, requests = run("a", **faults)
        again, log_again, requests_again = run("b", **faults)
        kinds = {record.kind.value for record in log}
        assert kinds == {"transient_read", "transient_write"}
        assert log == log_again
        assert requests == requests_again
        assert losses == again == clean


class TestStatePageRule:
    """An FP32 state's tail never shares a page with an FP16 parameter:
    the prefetch worker moves FP16 pages while state I/O runs unlocked."""

    @staticmethod
    def wide_model(seed=0):
        from repro.nn import Module
        from repro.nn.functional import gelu
        from repro.nn.layers import Embedding, Linear

        class Wide(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(seed)
                self.embed = Embedding(16, 100, rng)
                self.a = Linear(100, 400, rng)  # FP16 and FP32 tails
                self.b = Linear(400, 16, rng)

            def forward(self, token_ids, mixed_precision=False):
                hidden = gelu(self.a(self.embed(token_ids), mixed_precision))
                return self.b(hidden, mixed_precision)

        return Wide()

    def engine(self, **overrides):
        model = self.wide_model()
        config = dict(page_bytes=64 * KiB, gpu_memory_bytes=4 * MiB,
                      cpu_memory_bytes=16 * MiB, pipeline=True)
        config.update(overrides)
        return initialize(model, MixedPrecisionAdam(model.parameters(), lr=2e-3),
                          AngelConfig(**config))

    def test_state_tails_share_only_with_states(self):
        with self.engine() as engine:
            weight = next(m for m in engine._managed if m.name == "a.weight")
            assert weight.fp16.page_list[-1].tensor_ids == (weight.fp16.tensor_id,)
            states = {t.tensor_id for m in engine._managed
                      for t in (m.master, m.moment1, m.moment2)}
            shared = weight.moment1.page_list[-1].tensor_ids
            assert len(shared) == 2 and set(shared) <= states

    def test_registration_rejects_a_mixed_page(self, monkeypatch):
        from repro.memory.allocator import PageAllocator

        place_tail = PageAllocator._place_tail

        def by_tier_only(self, pool, share_key, *args):
            return place_tail(self, pool, share_key[0], *args)

        monkeypatch.setattr(PageAllocator, "_place_tail", by_tier_only)
        with pytest.raises(ConfigurationError, match="a.weight"):
            self.engine()

    def test_pipelined_bit_identical_to_sync_while_pages_move(self):
        def run(pipeline):
            # Eight GPU pages, the least the planner accepts: the prefetch
            # worker stages and evicts FP16 pages every step while the
            # state reads are in flight.
            with self.engine(pipeline=pipeline,
                             gpu_memory_bytes=8 * 64 * KiB) as engine:
                losses = []
                for batch in lm_synthetic_batches(16, 8, 4, 6, seed=2):
                    loss = engine(batch)
                    engine.backward(loss)
                    engine.step()
                    losses.append(loss.item())
                params = [m.param.data.copy() for m in engine._managed]
                return losses, params, engine.pipeline_report()

        sync_losses, sync_params, _ = run(False)
        # Three threads on the machine's cores, switching every few
        # bytecodes: a state read racing a page move would show here.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            losses, params, report = run(True)
        finally:
            sys.setswitchinterval(interval)
        assert report["prefetch"]["prefetched_groups"] > 0
        assert report["writeback"]["read_ahead"] > 0
        assert losses == sync_losses
        for a, b in zip(sync_params, params):
            assert np.array_equal(a, b)


class TestPageCopyService:
    def test_copy_between_shared_arenas(self):
        from repro.memory.arena import ArenaPoolBackend
        from repro.runtime.ioproc import PageCopyService

        src = ArenaPoolBackend(num_pages=4, page_bytes=256, shared=True)
        dst = ArenaPoolBackend(num_pages=4, page_bytes=256, shared=True)
        try:
            payload = bytes(range(256)) * 2
            src.write_from(1, 0, payload)
            with PageCopyService() as service:
                # One coalesced run: pages 1-2 of src into pages 0-1 of dst.
                service.copy(
                    src.descriptor(), dst.descriptor(), [(256, 0, 512)]
                )
            out = bytearray(512)
            dst.readinto(0, 0, out)
            assert bytes(out) == payload
        finally:
            src.close()
            dst.close()

    def test_copy_after_close_rejected(self):
        from repro.errors import TransientIOError
        from repro.runtime.ioproc import PageCopyService

        service = PageCopyService()
        service.close()
        assert not service.alive
        with pytest.raises(TransientIOError, match="closed"):
            service.copy(("shm", "x"), ("shm", "y"), [(0, 0, 1)])


class TestLivePlan:
    def test_executed_plan_verifies_clean(self):
        from repro.analysis.verifier import verify_plan

        _, _, facts = train(pipeline=True)
        plan = facts["plan"]
        assert plan is not None
        result = verify_plan(plan, facts["gpu_budget"])
        assert result.ok, result.violations

    def test_injected_plan_is_executed_not_replanned(self):
        """One IterationPlan flows planner -> engine -> verifier."""
        from repro.engine import build_live_plan

        model = tiny_model()
        opt = MixedPrecisionAdam(model.parameters(), lr=2e-3)
        config = AngelConfig(
            gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
            page_bytes=32 * KiB, pipeline=True,
        )
        with initialize(model, opt, config) as engine:
            batches = list(lm_synthetic_batches(16, 8, 4, 3, seed=5))
            loss = engine(batches[0])
            engine.backward(loss)
            engine.step()
            planned = build_live_plan(engine)
        model = tiny_model()
        opt = MixedPrecisionAdam(model.parameters(), lr=2e-3)
        config = AngelConfig(
            gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
            page_bytes=32 * KiB, pipeline=True, plan=planned,
        )
        with initialize(model, opt, config) as engine:
            for batch in batches:
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
            assert engine.executed_plan() is planned

    def test_plan_layer_mismatch_rejected(self):
        model = tiny_model()
        opt = MixedPrecisionAdam(model.parameters(), lr=2e-3)
        config = AngelConfig(
            gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
            page_bytes=32 * KiB, pipeline=True,
        )
        with initialize(model, opt, config) as engine:
            batch = next(iter(lm_synthetic_batches(16, 8, 4, 1, seed=5)))
            loss = engine(batch)
            engine.backward(loss)
            engine.step()
            plan = engine.executed_plan()
        other = tiny_model(num_layers=1)
        opt = MixedPrecisionAdam(other.parameters(), lr=2e-3)
        config = AngelConfig(
            gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
            page_bytes=32 * KiB, pipeline=True, plan=plan,
        )
        engine = initialize(other, opt, config)
        try:
            batch = next(iter(lm_synthetic_batches(16, 8, 4, 1, seed=5)))
            loss = engine(batch)
            engine.backward(loss)
            with pytest.raises(ConfigurationError, match="recorded"):
                engine.step()
        finally:
            engine.close()


class TestCoalescing:
    def test_groups_by_trigger_layer_direction(self):
        from repro.scheduler.tasks import Operation, Schedule, ScheduledTask

        tasks = [
            ScheduledTask(Operation.MOVE_TO_GPU, layer_index=0, page_id=0,
                          trigger_id=0, nbytes=10),
            ScheduledTask(Operation.MOVE_TO_GPU, layer_index=0, page_id=1,
                          trigger_id=0, nbytes=10),
            ScheduledTask(Operation.MOVE_TO_CPU, layer_index=0, page_id=0,
                          trigger_id=2, nbytes=10),
            ScheduledTask(Operation.MOVE_TO_GPU, layer_index=1, page_id=0,
                          trigger_id=0, nbytes=10),
            ScheduledTask(Operation.ALL_GATHER, layer_index=0, page_id=0,
                          trigger_id=1, nbytes=10),
        ]
        groups = coalesce_schedule(Schedule(tasks=list(tasks)))
        assert [
            (g.trigger_id, g.layer_index, g.fetch, g.pages) for g in groups
        ] == [(0, 0, True, 2), (0, 1, True, 1), (2, 0, False, 1)]
        assert groups[0].nbytes == 20

    def test_move_pages_coalesces_and_dedups(self):
        from repro.memory.allocator import PageAllocator
        from repro.memory.pool import DevicePool

        pools = {
            DeviceKind.GPU: DevicePool(DeviceKind.GPU, 1 * MiB, 32 * KiB),
            DeviceKind.CPU: DevicePool(DeviceKind.CPU, 4 * MiB, 32 * KiB),
        }
        allocator = PageAllocator(pools)
        # Two tensors whose tails share one page (at-most-two-per-page).
        first = allocator.allocate((40 * KiB // 4,), np.float32, DeviceKind.CPU)
        second = allocator.allocate((40 * KiB // 4,), np.float32, DeviceKind.CPU)
        shared = set(map(id, first.page_list)) & set(map(id, second.page_list))
        assert shared, "expected a tail-shared page"
        first.write_array(np.arange(first.size, dtype=np.float32))
        second.write_array(np.arange(second.size, dtype=np.float32) * 2)
        moved = allocator.move_pages([first, second], DeviceKind.GPU).bytes_moved
        unique_pages = {id(p) for t in (first, second) for p in t.page_list}
        assert moved == len(unique_pages) * 32 * KiB
        assert first.device_kind == DeviceKind.GPU
        assert second.device_kind == DeviceKind.GPU
        assert np.array_equal(
            first.read_array(), np.arange(first.size, dtype=np.float32)
        )
        # Idempotent: nothing left to move.
        report = allocator.move_pages([first, second], DeviceKind.GPU)
        assert report.bytes_moved == 0


class TestWorkQueue:
    def test_fifo_and_per_key_pending(self):
        queue = WorkQueue()
        queue.put("a", 1)
        queue.put("b", 2)
        assert len(queue) == 2
        key, item = queue.get()
        assert (key, item) == ("a", 1)
        # Pending until task_done, so read-your-writes waits cover
        # items a worker has dequeued but not finished.
        done = threading.Event()

        def waiter():
            queue.wait_key("a")
            done.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        assert not done.is_set()
        queue.task_done("a")
        thread.join(timeout=5)
        assert done.is_set()
        queue.close()

    def test_get_returns_none_when_closed_and_drained(self):
        queue = WorkQueue()
        queue.put("a", 1)
        queue.close()
        assert queue.get() is not None
        queue.task_done("a")
        assert queue.get() is None

    def test_put_after_close_raises(self):
        queue = WorkQueue()
        queue.close()
        with pytest.raises(ConfigurationError):
            queue.put("a", 1)

    def test_abort_drops_queued_and_wakes_waiters(self):
        queue = WorkQueue()
        queue.put("a", 1)
        queue.put("a", 2)
        dropped = queue.abort()
        assert [item for _, item in dropped] == [1, 2]
        queue.wait_key("a")  # returns immediately: nothing pending
        queue.close()

    def test_wait_key_times_out_on_dead_consumer(self):
        queue = WorkQueue()
        queue.put("a", 1)
        with pytest.raises(TimeoutError, match="completion of 'a'"):
            queue.wait_key("a", timeout=0.05)
        queue.close()

    def test_put_times_out_when_full(self):
        queue = WorkQueue(maxsize=1)
        queue.put("a", 1)
        with pytest.raises(TimeoutError, match="queue capacity"):
            queue.put("b", 2, timeout=0.05)
        queue.close()

    def test_wait_idle_times_out_then_succeeds(self):
        queue = WorkQueue()
        queue.put("a", 1)
        with pytest.raises(TimeoutError):
            queue.wait_idle(timeout=0.05)
        queue.get()
        queue.task_done("a")
        queue.wait_idle(timeout=5)
        queue.close()

    def test_negative_timeout_rejected(self):
        queue = WorkQueue()
        with pytest.raises(ConfigurationError):
            queue.wait_idle(timeout=-1)
        queue.close()


class TestWritebackQueue:
    def test_flushes_and_barrier(self):
        landed = []
        queue = WritebackQueue(lambda fn: fn())
        queue.start()
        for i in range(5):
            queue.submit(i, lambda i=i: landed.append(i))
        queue.barrier()
        assert landed == [0, 1, 2, 3, 4]
        assert queue.stats()["flushed"] == 5
        queue.close()

    def test_wait_is_read_your_writes(self):
        gate = threading.Event()
        landed = []

        def slow_io(fn):
            gate.wait(timeout=5)
            return fn()

        queue = WritebackQueue(slow_io)
        queue.start()
        queue.submit("x", lambda: landed.append("x"))
        assert landed == []
        gate.set()
        queue.wait("x")
        assert landed == ["x"]
        queue.close()

    def test_wait_times_out_on_stuck_io(self):
        gate = threading.Event()
        queue = WritebackQueue(lambda fn: gate.wait(timeout=5) and fn())
        queue.start()
        queue.submit("x", lambda: None)
        with pytest.raises(TimeoutError):
            queue.wait("x", timeout=0.05)
        gate.set()
        queue.wait("x", timeout=5)
        queue.close()

    def test_close_raises_when_the_thread_outlives_the_timeout(self):
        gate = threading.Event()
        queue = WritebackQueue(lambda fn: gate.wait(timeout=5) and fn())
        queue.start()
        queue.submit("x", lambda: None)
        try:
            with pytest.raises(SchedulingError, match="'writeback'"):
                queue.close(timeout=0.05)
        finally:
            gate.set()
            queue.close(timeout=5)

    def test_worker_error_surfaces_on_next_submit(self):
        def explode(fn):
            raise SchedulingError("tier on fire")

        queue = WritebackQueue(explode)
        queue.start()
        queue.submit("x", lambda: None)
        # Surfaces the error instead of hanging on the dead worker.
        with pytest.raises(SchedulingError, match="tier on fire"):
            queue.barrier()
        with pytest.raises(SchedulingError, match="tier on fire"):
            queue.raise_if_failed()
        queue.close()


class TestPrefetchWorker:
    @staticmethod
    def groups():
        return [
            MoveGroup(trigger_id=0, layer_index=0, fetch=True, nbytes=10,
                      pages=1),
            MoveGroup(trigger_id=1, layer_index=1, fetch=True, nbytes=10,
                      pages=1),
            MoveGroup(trigger_id=4, layer_index=0, fetch=False, nbytes=10,
                      pages=1),
        ]

    def test_window_gates_fetches_and_eviction_waits_for_trigger(self):
        fetched, evicted = [], []
        worker = PrefetchWorker(
            self.groups(), lambda layer: fetched.append(layer) or True,
            evicted.append, num_ops=6, window=2,
        )
        worker.start()
        try:
            worker.begin_iteration()
            worker.await_layer(0, 0)
            worker.await_layer(1, 1)
            assert sorted(fetched) == [0, 1]
            assert evicted == []  # trigger 4 not yet due
            worker.advance(5)
            worker.finish_iteration()
            assert evicted == [0]
            # Second iteration replays the same schedule.
            worker.begin_iteration()
            worker.advance(5)
            worker.finish_iteration()
            assert sorted(fetched) == [0, 0, 1, 1]
        finally:
            worker.stop()

    def test_finish_iteration_waits_for_the_last_eviction(self):
        """Drain means the tail eviction *ran*, not merely got picked —
        and the worker wakes the drain when it has (no lost wakeup)."""
        evicted = []

        def slow_evict(layer):
            time.sleep(0.05)
            evicted.append(layer)

        worker = PrefetchWorker(
            self.groups(), lambda layer: True, slow_evict,
            num_ops=6, window=2,
        )
        worker.start()
        try:
            for iteration in (1, 2):
                worker.begin_iteration()
                started = time.perf_counter()
                worker.finish_iteration(timeout=5)
                assert time.perf_counter() - started < 1.0
                assert evicted == [0] * iteration
        finally:
            worker.stop()

    def test_stop_raises_when_the_thread_outlives_the_timeout(self):
        entered, release = threading.Event(), threading.Event()

        def stuck_fetch(layer):
            entered.set()
            return release.wait(timeout=5)

        worker = PrefetchWorker(
            self.groups()[:1], stuck_fetch, lambda layer: None,
            num_ops=6, window=2,
        )
        worker.start()
        try:
            worker.begin_iteration()
            assert entered.wait(timeout=5)
            with pytest.raises(SchedulingError, match="'prefetch'"):
                worker.stop(timeout=0.05)
        finally:
            release.set()
            worker.stop(timeout=5)

    def test_await_returns_stall_seconds(self):
        release = threading.Event()

        def slow_fetch(layer):
            return release.wait(timeout=5)

        worker = PrefetchWorker(
            self.groups()[:1], slow_fetch, lambda layer: None,
            num_ops=6, window=2,
        )
        worker.start()
        try:
            worker.begin_iteration()
            timer = threading.Timer(0.05, release.set)
            timer.start()
            stalled = worker.await_layer(0, 0)
            assert stalled > 0.0
        finally:
            worker.stop()

    def test_fetch_that_does_not_fit_is_deferred_then_abandoned(self):
        """The engine's fetch callback answers "does not fit" from the
        pool's free-page count: the worker defers, retries at the group's
        own trigger, abandons — and nothing raises or captures a dump."""
        model = tiny_model()
        opt = MixedPrecisionAdam(model.parameters(), lr=2e-3)
        engine = initialize(model, opt, AngelConfig(
            gpu_memory_bytes=32 * KiB, cpu_memory_bytes=16 * MiB,
            page_bytes=32 * KiB,
        ))
        captures = []
        capture = engine.forensics.capture
        engine.forensics.capture = (
            lambda *args: captures.append(args) or capture(*args))
        two_params = next(
            [engine._by_param[id(p)] for p in m._parameters.values()]
            for m in model.modules() if len(m._parameters) == 2
        )
        engine._layer_managed = [two_params]  # two pages, one-page pool
        worker = PrefetchWorker(
            [MoveGroup(trigger_id=1, layer_index=0, fetch=True,
                       nbytes=64 * KiB, pages=2)],
            engine._pipeline_fetch, engine._pipeline_evict,
            num_ops=4, window=2,
        )
        worker.start()
        try:
            worker.begin_iteration()
            worker.finish_iteration(timeout=5)
            stats = worker.stats()
            assert (stats["deferred"], stats["abandoned"]) == (1, 1)
            assert stats["prefetched_groups"] == 0
            worker.raise_if_failed()
            assert captures == [] and engine.forensics.last_dump is None
            assert engine.allocator.pool(DeviceKind.GPU).pages_in_use == 0
        finally:
            worker.stop()
            engine.close()

    def test_worker_error_raised_at_step_boundary(self):
        def explode(layer):
            raise SchedulingError("bad move")

        worker = PrefetchWorker(
            self.groups()[:1], explode, lambda layer: None,
            num_ops=6, window=2,
        )
        worker.start()
        try:
            worker.begin_iteration()
            with pytest.raises(SchedulingError, match="bad move"):
                worker.finish_iteration()
        finally:
            worker.stop()


class TestConfigRoundTrip:
    def test_to_dict_from_dict(self):
        config = AngelConfig(
            gpu_memory_bytes=2 * MiB, pipeline=True, lock_free=True,
            update_interval=3,
        )
        rebuilt = AngelConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert len(config.to_dict()) == 9

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine fields"):
            AngelConfig.from_dict({"gpu_memory_byte": 1})

    def test_collaborators_not_serialized(self):
        config = AngelConfig(retry_policy=RetryPolicy())
        assert "retry_policy" not in config.to_dict()

    def test_validation_shared_with_post_init(self):
        with pytest.raises(ConfigurationError, match="update_interval"):
            AngelConfig.from_dict({"update_interval": 0})
