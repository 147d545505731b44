"""Functional Angel engine: the Figure 6 API over paged memory tiers."""

import gc
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from repro.engine import AngelConfig, initialize
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.hardware.device import DeviceKind
from repro.nn import (
    Adam, MixedPrecisionAdam, TinyTransformerLM, cross_entropy, lm_synthetic_batches,
)
from repro.telemetry import Telemetry
from repro.units import KiB, MiB


def tiny_model(seed=1, num_layers=2):
    return TinyTransformerLM(
        vocab_size=16, d_model=16, d_ffn=32, num_heads=2, num_layers=num_layers,
        max_seq=8, seed=seed,
    )


def make_engine(model=None, optimizer=None, **config_kwargs):
    model = model or tiny_model()
    opt = optimizer or MixedPrecisionAdam(model.parameters(), lr=2e-3)
    defaults = dict(
        gpu_memory_bytes=2 * MiB,
        cpu_memory_bytes=16 * MiB,
        page_bytes=32 * KiB,
    )
    defaults.update(config_kwargs)
    return initialize(model, opt, AngelConfig(**defaults))


class TestInitialize:
    def test_requires_mixed_precision_adam(self):
        model = tiny_model()
        with pytest.raises(ConfigurationError):
            initialize(model, Adam(model.parameters()), AngelConfig())

    def test_states_placed_on_cpu_without_ssd(self):
        with make_engine() as engine:
            report = engine.memory_report()
            assert "ssd" not in report
            assert report["cpu"]["pages_in_use"] > 0

    def test_states_placed_on_ssd_when_enabled(self):
        with make_engine(ssd_bytes=16 * MiB) as engine:
            managed = engine._managed[0]
            assert managed.master.device_kind == DeviceKind.SSD
            assert managed.moment1.device_kind == DeviceKind.SSD
            # FP16 buffered params stay in CPU memory (Algorithm 2).
            assert managed.fp16.device_kind == DeviceKind.CPU

    def test_lock_free_needs_interval(self):
        with pytest.raises(ConfigurationError):
            AngelConfig(lock_free=True, update_interval=1)
        # ...and an interval needs lock_free: a deferred sweep without it
        # must not silently train synchronously.
        with pytest.raises(ConfigurationError, match="lock_free"):
            AngelConfig(update_interval=4)


class TestTrainingLoop:
    def test_figure6_loop_learns(self):
        with make_engine() as engine:
            losses = []
            for batch in lm_synthetic_batches(16, 8, 8, 80, seed=2):
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
                losses.append(loss.item())
            assert np.mean(losses[-8:]) < np.mean(losses[:8]) - 0.2

    def test_pages_are_authoritative_for_master_state(self):
        """After three steps the paged FP32 master, m and v equal a plain
        MixedPrecisionAdam loop's — and the pages are their only copy."""
        batches = list(lm_synthetic_batches(16, 8, 4, 3, seed=3))
        with make_engine() as engine:
            for batch in batches:
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
            pages = [[t.read_array() for t in (m.master, m.moment1, m.moment2)]
                     for m in engine._managed]
            for managed in engine._managed:
                np.testing.assert_array_equal(
                    managed.fp16.read_array().astype(np.float32),
                    managed.param.data,
                )
            opt = engine.optimizer
            assert opt.master == opt.m == opt.v == [None] * len(engine._managed)
        model = tiny_model()
        opt = MixedPrecisionAdam(model.parameters(), lr=2e-3)
        for param in model.parameters():  # compute reads the buffered p'16
            param.data[...] = param.data.astype(np.float16).astype(np.float32)
        for batch in batches:
            loss = cross_entropy(model(batch.inputs, True), batch.targets)
            model.zero_grad()
            loss.backward()
            for param in model.parameters():  # the FP16 gradient buffer
                param.grad = param.grad.astype(np.float16).astype(np.float32)
            opt.step()
        for i, states in enumerate(pages):
            for got, want in zip(states, (opt.master[i], opt.m[i], opt.v[i])):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("ssd", [False, True])
    def test_initialize_keeps_a_stepped_optimizers_states(self, ssd):
        """Wrapping an optimizer that already stepped moves its FP32
        master, m and v into the pages bit for bit, not the FP16-rounded
        parameters and zeros."""
        model = tiny_model()
        opt = MixedPrecisionAdam(model.parameters(), lr=2e-3)
        for batch in lm_synthetic_batches(16, 8, 4, 2, seed=5):
            loss = cross_entropy(model(batch.inputs, True), batch.targets)
            model.zero_grad()
            loss.backward()
            opt.step()
        before = [[a.copy() for a in (opt.master[i], opt.m[i], opt.v[i])]
                  for i in range(len(opt.params))]
        with make_engine(model, ssd_bytes=16 * MiB if ssd else 0,
                         optimizer=opt) as engine:
            assert engine.optimizer.t == 2
            for managed in engine._managed:
                pages = (managed.master, managed.moment1, managed.moment2)
                for page, want in zip(pages, before[managed.index]):
                    np.testing.assert_array_equal(
                        page.read_array().view(np.uint32), want.view(np.uint32),
                        err_msg=managed.name,
                    )

    def test_wrapped_optimizer_cannot_be_wrapped_again(self):
        with make_engine() as engine:
            with pytest.raises(ConfigurationError, match="already live"):
                initialize(engine.module, engine.optimizer, AngelConfig(
                    gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
                    page_bytes=32 * KiB,
                ))

    def test_parameters_move_to_gpu_on_forward(self):
        with make_engine() as engine:
            batch = next(lm_synthetic_batches(16, 8, 4, 1, seed=4))
            engine(batch)
            report = engine.memory_report()
            assert report["gpu"]["pages_in_use"] > 0

    def test_eviction_under_tight_gpu_pool(self):
        """A GPU pool smaller than the model forces LRU eviction."""
        model = tiny_model(num_layers=4)
        with make_engine(model=model, gpu_memory_bytes=256 * KiB) as engine:
            for batch in lm_synthetic_batches(16, 8, 4, 2, seed=5):
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
            gpu = engine.allocator.pool(DeviceKind.GPU)
            # The pool never exceeded capacity and something was evicted
            # back to CPU at some point.
            assert gpu.peak_in_use <= gpu.num_pages
            on_cpu = [
                m for m in engine._managed
                if m.fp16.device_kind == DeviceKind.CPU
            ]
            assert on_cpu

    def test_oom_when_single_module_exceeds_gpu(self):
        """A one-page GPU pool cannot pin a two-parameter module."""
        model = tiny_model()
        with pytest.raises(OutOfMemoryError):
            engine = make_engine(model=model, gpu_memory_bytes=32 * KiB)
            batch = next(lm_synthetic_batches(16, 8, 4, 1, seed=6))
            engine(batch)

    def test_lock_free_defers_updates(self):
        with make_engine(lock_free=True, update_interval=3) as engine:
            batches = list(lm_synthetic_batches(16, 8, 4, 3, seed=7))
            ran = []
            for batch in batches:
                loss = engine(batch)
                engine.backward(loss)
                ran.append(engine.step())
            assert ran == [False, False, True]

    def test_lock_free_still_learns(self):
        with make_engine(lock_free=True, update_interval=2) as engine:
            losses = []
            for batch in lm_synthetic_batches(16, 8, 8, 80, seed=8):
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
                losses.append(loss.item())
            assert np.mean(losses[-8:]) < np.mean(losses[:8]) - 0.2


class TestHostMemory:
    """The pages are the only copy of the FP32 states: between steps the
    host holds the FP32 parameter, its gradient and its gradient buffer
    (12 B/param), and no master, m or v array."""

    @staticmethod
    def traced_bytes(d_model, path, **config) -> tuple[int, int]:
        """Host bytes tracemalloc sees held by an engine built from the
        ``JobWorkload(layers=2, d_model)`` model after 3 steps and a
        barrier, and the model's parameter count."""
        from repro.fleet.factory import JobFactory, JobWorkload

        factory = JobFactory(JobWorkload(layers=2, d_model=d_model))
        batches = factory.batches(3)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            engine = factory.engine(AngelConfig(
                page_bytes=64 * KiB, gpu_memory_bytes=16 * MiB,
                cpu_memory_bytes=96 * MiB, ssd_path=str(path), **config,
            ))
            try:
                for batch in batches:
                    engine.backward(engine(batch))  # drops the autograd graph
                    engine.step()
                engine.barrier()
                gc.collect()
                held = tracemalloc.get_traced_memory()[0] - base
                params = sum(p.data.size for p in engine.module.parameters())
            finally:
                engine.close()
        finally:
            tracemalloc.stop()
        return held, params

    @pytest.mark.parametrize("pipeline", [False, True], ids=["sync", "pipelined"])
    @pytest.mark.parametrize("ssd_bytes", [0, 64 * MiB], ids=["cpu", "ssd"])
    def test_marginal_host_bytes_per_parameter(self, tmp_path, pipeline, ssd_bytes):
        """d_model 128 -> 256 adds ~437k parameters. A host mirror of
        master, m and v adds 12 B each (~25 B/param in all); one mirrored
        state alone would add 4 B and break the 16 B bound."""
        small, n_small = self.traced_bytes(
            128, tmp_path / "small.bin", pipeline=pipeline, ssd_bytes=ssd_bytes)
        large, n_large = self.traced_bytes(
            256, tmp_path / "large.bin", pipeline=pipeline, ssd_bytes=ssd_bytes)
        assert (large - small) / (n_large - n_small) <= 16

    #: Trains JobWorkload(layers=4, d_model=256, d_ffn=1024) for 3 steps
    #: with the FP32 states on SSD (argv[1] names the file) or on CPU
    #: (no argv[1]), then prints the parameter count and VmHWM in KiB.
    PEAK_RSS_CHILD = """
import sys
from repro.engine import AngelConfig
from repro.fleet.factory import JobFactory, JobWorkload
from repro.units import KiB, MiB
ssd_path = sys.argv[1] if len(sys.argv) > 1 else None
factory = JobFactory(JobWorkload(layers=4, d_model=256, d_ffn=1024))
engine = factory.engine(AngelConfig(
    page_bytes=64 * KiB, gpu_memory_bytes=8 * MiB, cpu_memory_bytes=256 * MiB,
    ssd_bytes=256 * MiB if ssd_path else 0, ssd_path=ssd_path,
))
for batch in factory.batches(3):
    engine.backward(engine(batch))
    engine.step()
engine.barrier()
params = sum(p.data.size for p in engine.module.parameters())
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
engine.close()
print(params, hwm)
"""

    def test_ssd_resident_states_leave_the_resident_set(self, tmp_path):
        """FP32 master, m and v are 12 B/param; on the SSD tier they live
        in the file, so the SSD run peaks at least 8 B/param below the
        CPU run. A mapped file would count them as resident again."""
        try:
            with open("/proc/self/status") as status:
                has_hwm = any(line.startswith("VmHWM:") for line in status)
        except OSError:
            has_hwm = False
        if not has_hwm:
            pytest.skip("no VmHWM in /proc/self/status")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )

        def peak(*argv) -> tuple[int, int]:
            result = subprocess.run(
                [sys.executable, "-c", self.PEAK_RSS_CHILD, *argv],
                capture_output=True, text=True, env=env, check=True,
                timeout=120,
            )
            params, hwm_kib = result.stdout.split()
            return int(params), int(hwm_kib) * KiB

        params, ssd_peak = peak(str(tmp_path / "ssd.bin"))
        _, cpu_peak = peak()
        assert (cpu_peak - ssd_peak) / params >= 8, (ssd_peak, cpu_peak)


class TestIntrospection:
    def test_access_trace_orders_like_forward(self):
        with make_engine() as engine:
            batch = next(lm_synthetic_batches(16, 8, 4, 1, seed=9))
            engine(batch)
            trace = engine.access_trace()
            assert trace
            by_name = {name: (first, last) for name, first, last in trace}
            # The embedding is touched before the head.
            assert by_name["embed.weight"][0] < by_name["head.weight"][0]
            for name, first, last in trace:
                assert 0 < first <= last

    def test_memory_report_shape(self):
        with make_engine(ssd_bytes=8 * MiB) as engine:
            report = engine.memory_report()
            assert set(report) == {"gpu", "cpu", "ssd"}
            for tier in report.values():
                assert set(tier) == {
                    "pages_in_use", "used_bytes", "free_bytes", "peak_pages",
                }


class TestAngelConfigValidation:
    def test_update_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            AngelConfig(update_interval=0)

    def test_sync_mode_allows_interval_one(self):
        config = AngelConfig(lock_free=False, update_interval=1)
        assert not config.lock_free

    def test_optimizer_parameter_mismatch_rejected(self):
        model = tiny_model()
        other = tiny_model(num_layers=4)
        opt = MixedPrecisionAdam(other.parameters())
        with pytest.raises(ConfigurationError):
            initialize(model, opt, AngelConfig(
                gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
                page_bytes=32 * KiB,
            ))


class TestGpuResidency:
    def test_resident_hits_after_first_iteration(self):
        """Iteration 1 demand-fetches every parameter; with room to keep
        them, later iterations find them already GPU-resident."""
        with make_engine(gpu_memory_bytes=4 * MiB) as engine:
            batches = list(lm_synthetic_batches(16, 8, 4, 4, seed=30))
            for batch in batches[:1]:
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
            warm_hits, cold_fetches = engine.prefetch_hits, engine.demand_fetches
            assert cold_fetches > 0
            for batch in batches[1:]:
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
            assert engine.prefetch_hits > warm_hits
            assert engine.demand_fetches == cold_fetches

    def test_tiny_pool_demand_path_still_learns(self):
        """Under a pool that forces eviction every access, demand fetch +
        LRU eviction alone carry training (it keeps learning)."""
        model = tiny_model(num_layers=4)
        with make_engine(model=model, gpu_memory_bytes=256 * KiB) as engine:
            losses = []
            for batch in lm_synthetic_batches(16, 8, 8, 40, seed=31):
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
                losses.append(loss.item())
            assert engine.demand_fetches > 0
            assert np.mean(losses[-4:]) < np.mean(losses[:4])

    def test_demand_path_raises_no_oom_at_all(self):
        """The demand path asks ``free_pages`` and evicts until the fetch
        fits: under a pool that forces eviction on every access no pool
        raises OutOfMemoryError, evictions still happen every step, and
        the numerics match a pool with room for everything."""
        batches = list(lm_synthetic_batches(16, 8, 8, 3, seed=33))

        def run(gpu_memory_bytes):
            telemetry = Telemetry()
            ooms, losses, evictions = [], [], []
            with make_engine(
                model=tiny_model(num_layers=4), telemetry=telemetry,
                gpu_memory_bytes=gpu_memory_bytes,
            ) as engine:
                for pool in engine.allocator.pools.values():
                    forensic = pool.oom_observer

                    def observer(exc, forensic=forensic):
                        ooms.append(exc)
                        forensic(exc)

                    pool.oom_observer = observer
                for batch in batches:
                    loss = engine(batch)
                    engine.backward(loss)
                    engine.step()
                    losses.append(loss.item())
                    evictions.append(
                        telemetry.registry.value("pages.evictions"))
                assert engine.forensics.last_dump is None
            return ooms, losses, evictions

        ooms, losses, evictions = run(256 * KiB)
        assert ooms == []
        assert 0 < evictions[0] < evictions[1] < evictions[2]
        roomy_ooms, roomy_losses, roomy_evictions = run(8 * MiB)
        assert roomy_ooms == [] and roomy_evictions == [0, 0, 0]
        assert losses == roomy_losses

    def test_shared_tail_pages_do_not_starve_the_demand_path(self):
        """With the FP32 states on SSD, consecutive FP16 tensors share
        tail pages, so evicting a victim can take a page of the tensor
        being fetched along. The demand path asks again instead of
        trusting its first count: no OOM even at eight pages."""
        def run(gpu_pages, page=384):
            ooms, losses = [], []
            with make_engine(
                model=tiny_model(num_layers=3), page_bytes=page,
                gpu_memory_bytes=gpu_pages * page,
                cpu_memory_bytes=4096 * page, ssd_bytes=8192 * page,
            ) as engine:
                assert any(
                    len(page.tensor_ids) == 2
                    for m in engine._managed for page in m.fp16.page_list
                )
                for pool in engine.allocator.pools.values():
                    pool.oom_observer = ooms.append
                for batch in lm_synthetic_batches(16, 8, 4, 3, seed=5):
                    loss = engine(batch)
                    engine.backward(loss)
                    engine.step()
                    losses.append(loss.item())
            return ooms, losses

        assert run(8) == ([], run(4000)[1])

    def test_escaping_oom_names_the_pinned_module(self):
        """A module whose parameters cannot fit even with everything else
        evicted: the pool's OOM reaches the caller, and its forensics name
        exactly that module's parameters as the pinned set."""
        engine = make_engine(gpu_memory_bytes=32 * KiB)  # one page
        try:
            batch = next(lm_synthetic_batches(16, 8, 4, 1, seed=6))
            with pytest.raises(OutOfMemoryError) as err:
                engine(batch)
            culprit = engine._module_order[-1]
            names = sorted(
                engine._by_param[id(p)].name
                for p in culprit._parameters.values()
            )
            assert len(names) == 2  # two one-page parameters, one page
            assert err.value.forensics.pinned == names
            assert engine.forensics.last_dump is err.value.forensics
            # Everything evictable was evicted before giving up.
            assert not engine._lru
        finally:
            engine.close()

    def test_lru_order_picks_the_min_last_access_victims(self):
        """The access-ordered dict evicts exactly what a scan for
        ``min(last_access)`` over GPU-resident, non-pinned parameters
        would — also after the pipeline thread's fetch/evict callbacks —
        and never one victim more than the fetch needs."""
        rng = np.random.default_rng(7)
        engine = make_engine(
            model=tiny_model(num_layers=4), gpu_memory_bytes=256 * KiB,
        )
        try:
            modules = [m for m in engine.module.modules() if m._parameters]
            engine._layer_managed = [
                [engine._by_param[id(p)] for p in m._parameters.values()]
                for m in modules
            ]
            gpu = engine.allocator.pool(DeviceKind.GPU)
            pinned_now, checked = [], []
            demand_fetch = engine._demand_fetch
            move_pages = engine.allocator.move_pages

            def spy_fetch(missing, pinned):
                pinned_now.append((pinned, sum(
                    len(m.fp16.page_list) for m in missing)))
                try:
                    demand_fetch(missing, pinned)
                finally:
                    pinned_now.pop()

            def spy_move(tensors, device):
                if device == DeviceKind.CPU and pinned_now:
                    pinned, need = pinned_now[-1]
                    by_age = sorted(
                        (m for m in engine._managed
                         if m.index not in pinned
                         and m.fp16.device_kind == DeviceKind.GPU),
                        key=lambda m: m.last_access,
                    )
                    assert tensors == [m.fp16 for m in by_age[:len(tensors)]]
                    freed = sum(len(t.page_list) for t in tensors)
                    assert gpu.free_pages + freed >= need
                    assert gpu.free_pages + freed - len(
                        tensors[-1].page_list) < need
                    checked.append(len(tensors))
                return move_pages(tensors, device)

            engine._demand_fetch = spy_fetch
            engine.allocator.move_pages = spy_move
            for _ in range(400):
                roll = rng.random()
                layer = int(rng.integers(len(modules)))
                if roll < 0.7:
                    engine._on_module_forward(modules[layer])
                elif roll < 0.85:
                    engine._pipeline_fetch(layer)
                else:
                    engine._pipeline_evict(layer)
                resident = {
                    m.index for m in engine._managed
                    if m.fp16.device_kind == DeviceKind.GPU
                }
                assert set(engine._lru) == resident
            assert len(checked) > 50 and max(checked) > 1
        finally:
            engine.close()

    def test_roomy_pool_mostly_hits(self):
        """With everything resident, steady-state accesses are all hits."""
        with make_engine(gpu_memory_bytes=8 * MiB) as engine:
            batches = list(lm_synthetic_batches(16, 8, 4, 5, seed=32))
            for batch in batches:
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
            # After warm-up every parameter stays on the GPU pool.
            assert engine.prefetch_hits > engine.demand_fetches
