"""The Angel-PTM programming interface (Figure 6), functional mode.

``initialize(model, optimizer, config)`` wraps a numpy model so that its
FP16 working parameters and FP32 optimizer states physically live in paged
hierarchical memory: a capacity-limited "GPU" pool, a CPU pool, and an
optional file-backed SSD pool. Forward hooks fetch each module's parameter
pages into the GPU pool on first touch (evicting least-recently-used pages
under pressure), the backward pass deposits gradients into CPU buffers,
and ``step()`` round-trips the FP32 master states through their pages —
through real file I/O when the SSD tier is enabled. They are the only copy:
each sweep stages one layer's states in transient arrays.

With ``pipeline=True`` the engine becomes schedule-driven after its first
(recording) iteration: the recorded access pattern is planned by the same
Algorithm-1 pipeline the simulator uses (:mod:`repro.engine.liveplan`), a
background prefetch worker stages pages ahead of the compute loop
(:mod:`repro.runtime.pipeline`), the forward hooks *await* a layer instead
of fetching it, FP32-state reads and writes move to a state I/O thread, and
the planned dynamic GPU cache (Section 4.2) is installed live. Numerics
are bit-identical to the synchronous path — the pipeline only reorders
byte-preserving page movements.

The training loop is exactly the paper's:

    model = angelptm.initialize(model, optimizer, config)
    for batch in batches:
        loss = model(batch)
        model.backward(loss)
        model.step()
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.device import DeviceKind
from repro.lockfree.buffers import GradientBuffers
from repro.memory.allocator import PageAllocator, PageQuota
from repro.memory.pool import DevicePool
from repro.memory.tensor import PagedTensor, gather, scatter
from repro.nn.data import Batch
from repro.nn.functional import cross_entropy
from repro.nn.layers import Module
from repro.nn.optim import MixedPrecisionAdam
from repro.nn.tensor import Tensor, round_fp16
from repro.protocols import FaultPlanLike, RetryPolicyLike, TelemetryLike
from repro.units import KiB, MiB

if TYPE_CHECKING:  # pragma: no cover - the scheduler builds on the engine
    from repro.scheduler.unified import IterationPlan

#: AngelConfig fields that round-trip through ``to_dict``/``from_dict``.
#: Collaborator objects (fault_plan, retry_policy, telemetry) and a
#: pre-built plan are live-only and intentionally excluded.
_ANGEL_CONFIG_FIELDS = (
    "gpu_memory_bytes",
    "cpu_memory_bytes",
    "ssd_bytes",
    "page_bytes",
    "lock_free",
    "update_interval",
    "ssd_path",
    "pipeline",
    "owner",
)


#: How many triggers ahead of the compute horizon the prefetch worker may
#: run (the bounded in-flight window).
PREFETCH_WINDOW = 2


@dataclass(frozen=True)
class AngelConfig:
    """Functional-engine configuration (the ``config`` of Figure 6)."""

    gpu_memory_bytes: int = 64 * MiB
    cpu_memory_bytes: int = 256 * MiB
    ssd_bytes: int = 0
    page_bytes: int = 256 * KiB
    #: Lock-free updating (Algorithm 2): the update sweep runs once every
    #: ``update_interval`` steps. Set together: ``lock_free`` exactly
    #: when ``update_interval > 1``.
    lock_free: bool = False
    update_interval: int = 1
    ssd_path: str | None = None
    #: Schedule-driven pipelined runtime: after the recording iteration,
    #: plan the access pattern and drive prefetch/eviction/writeback from
    #: background workers (Section 4.3's hierarchical pipeline, live).
    pipeline: bool = False
    #: Tenant this engine's pages belong to under multi-tenancy
    #: (``repro.fleet``); labels every page and names the pools.
    owner: str | None = None
    #: Optional shared repro.memory.PageQuota ledger the allocator charges
    #: page acquisitions against (requires ``owner``); exceeding the
    #: tenant's share raises a typed QuotaExceededError. Live-only.
    quota: "PageQuota | None" = None
    #: Optional pre-built repro.scheduler.IterationPlan to execute instead
    #: of planning from the engine's own recorded trace — the same plan
    #: object can flow simulator -> live engine -> verifier.
    plan: "IterationPlan | None" = None
    #: Optional repro.resilience.FaultPlan injected into the SSD tier's
    #: physical backend (chaos testing, Section 3.1's failure model).
    fault_plan: FaultPlanLike | None = None
    #: Optional repro.resilience.RetryPolicy absorbing transient tier I/O
    #: errors on page moves and FP32-state round trips.
    retry_policy: RetryPolicyLike | None = None
    #: Optional repro.telemetry.Telemetry: spans for forward/backward and
    #: update sweeps, per-(src, dst) page-traffic counters, cache hit
    #: rates and sweep-latency histograms. ``None`` keeps the engine on
    #: the no-op fast path.
    telemetry: TelemetryLike | None = None

    def __post_init__(self) -> None:
        if self.update_interval < 1:
            raise ConfigurationError("update_interval must be >= 1")
        if self.lock_free != (self.update_interval > 1):
            raise ConfigurationError(
                "lock_free must be set exactly when update_interval >= 2 "
                f"(got lock_free={self.lock_free}, "
                f"update_interval={self.update_interval}; 1 is synchronous "
                "training)"
            )
        if self.quota is not None and self.owner is None:
            raise ConfigurationError("quota enforcement requires an owner")

    def to_dict(self) -> dict:
        """Serializable knobs; collaborators and plans stay live-only."""
        return {name: getattr(self, name) for name in _ANGEL_CONFIG_FIELDS}

    @classmethod
    def from_dict(cls, config: dict) -> "AngelConfig":
        """Build a config from a parsed JSON object.

        Shares the unknown-field guard with the cluster schema
        (:func:`repro.hardware.config_io.reject_unknown_fields`); value
        validation is ``__post_init__``'s, same as direct construction.
        """
        # Deferred import: hardware.config_io is a leaf, but keep the
        # engine's import set minimal for non-serializing users.
        from repro.hardware.config_io import reject_unknown_fields

        reject_unknown_fields(config, _ANGEL_CONFIG_FIELDS, "engine")
        return cls(**config)


@dataclass
class _Managed:
    """One parameter's presence across the memory hierarchy."""

    index: int
    name: str
    param: Tensor
    fp16: PagedTensor     # buffered FP16 parameters (p'16)
    master: PagedTensor   # FP32 master parameters (p32)
    moment1: PagedTensor  # FP32 first moment (m32)
    moment2: PagedTensor  # FP32 second moment (v32)
    last_access: int = -1
    first_access: int = -1


class AngelModel:
    """A model wrapped by the Angel-PTM functional engine."""

    def __init__(self, model: Module, optimizer: MixedPrecisionAdam, config: AngelConfig):
        if not isinstance(optimizer, MixedPrecisionAdam):
            raise ConfigurationError(
                "the functional engine requires MixedPrecisionAdam "
                "(FP32 master states, Section 2.1)"
            )
        self.module = model
        self.optimizer = optimizer
        self.config = config
        self._clock = 0
        self._iteration = 0
        self._pending = 0
        # _move_lock serializes page movement between the prefetch worker
        # and the demand-fetch / sweep paths. State-tier I/O takes no
        # lock: backends copy positionally (mmap slices, pread/pwrite),
        # and no page holds both a state and an FP16 parameter (checked
        # at registration), so the state I/O thread runs beside moves.
        self._move_lock = threading.RLock()
        if config.telemetry is not None:
            self.telemetry = config.telemetry
        else:
            # Deferred import keeps the default construction path light.
            from repro.telemetry.core import NULL_TELEMETRY

            self.telemetry = NULL_TELEMETRY
        telemetry = self.telemetry if self.telemetry.enabled else None

        pools = {
            DeviceKind.GPU: DevicePool(
                DeviceKind.GPU, config.gpu_memory_bytes, config.page_bytes,
                telemetry=telemetry, owner=config.owner,
            ),
            DeviceKind.CPU: DevicePool(
                DeviceKind.CPU, config.cpu_memory_bytes, config.page_bytes,
                telemetry=telemetry, owner=config.owner,
            ),
        }
        if config.ssd_bytes:
            pools[DeviceKind.SSD] = DevicePool(
                DeviceKind.SSD, config.ssd_bytes, config.page_bytes,
                backend="file", file_path=config.ssd_path, telemetry=telemetry,
                owner=config.owner,
            )
            if config.fault_plan is not None:
                # Deferred import: repro.resilience builds on this engine.
                from repro.resilience.faults import inject_faults

                inject_faults(pools[DeviceKind.SSD], config.fault_plan, tier="ssd")
        # Deferred import: repro.observe consumes this engine's telemetry.
        from repro.observe.forensics import ForensicRecorder

        #: Memory forensics: waterline timeline sampled at step boundaries;
        #: any OOM raised by the pools carries a dump (``exc.forensics``).
        self.forensics = ForensicRecorder()
        self.allocator = PageAllocator(
            pools, retry_policy=config.retry_policy, telemetry=telemetry,
            forensics=self.forensics, owner=config.owner, quota=config.quota,
        )

        self._managed: list[_Managed] = []
        self._by_param: dict[int, _Managed] = {}
        #: FP16 parameters staged on the GPU pool, least recently used
        #: first (index -> _Managed): the eviction order. Mutated only
        #: under _move_lock.
        self._lru: OrderedDict[int, _Managed] = OrderedDict()
        try:
            self._register_parameters()
        except Exception:
            # A half-registered engine has no handle the caller could close;
            # return the pages (and any quota charges) before propagating —
            # a tenant rejected at its quota must not leak charged pages.
            self.allocator.close()
            raise
        self._buffers = GradientBuffers([m.param for m in self._managed])
        self._install_hooks()

        # Training is iterative, so the module access order recorded in
        # the first iteration predicts every later one (Section 4.2); the
        # pipelined runtime plans its prefetch schedule from it.
        self._module_order: list[Module] = []
        self._order_recorded = False
        #: Parameters found already GPU-resident at touch / fetched on
        #: demand (the watchdog's cache_thrash ratio).
        self.prefetch_hits = 0
        self.demand_fetches = 0
        # GPU-cache and eviction counters, fetched once (identity-stable).
        self._hits_counter = self.telemetry.counter("cache.prefetch_hits")
        self._demand_counter = self.telemetry.counter("cache.demand_fetches")
        self._evict_counter = self.telemetry.counter("pages.evictions")
        # Pending-iterations-behind gauge: the watchdog's staleness signal.
        self._lag_gauge = self.telemetry.gauge("updater.lag_iterations")

        # Pipelined runtime, constructed lazily once the recording
        # iteration completes (see _start_pipeline).
        self._pipeline = None
        self._writeback = None
        self._live_plan: "IterationPlan | None" = config.plan
        self._layer_modules: list[Module] = []
        self._layer_managed: list[list[_Managed]] = []
        self._layer_of_module: dict[int, int] = {}
        self._cache_resident: set[int] = set()
        self._stall_seconds = 0.0
        self._demand_seconds = 0.0
        #: Layer (``_groups`` index) -> the arrays the state I/O thread
        #: reads its FP32 states into for the next sweep (master, m, v per
        #: parameter). Only that sweep and its queued write hold them.
        self._read_ahead: dict[int, list[np.ndarray]] = {}
        #: Sweep reads of off-GPU states on the pipelined path that did
        #: not come from a read ahead (ROADMAP: no silent fallbacks).
        self.inline_state_reads = 0

    # ------------------------------------------------------------------
    # Registration and hooks
    # ------------------------------------------------------------------
    def _register_parameters(self) -> None:
        params = list(self.module.named_parameters())
        opt = self.optimizer
        if len(params) != len(opt.params):
            raise ConfigurationError("optimizer does not cover the model's parameters")
        if any(master is None for master in opt.master):
            raise ConfigurationError("the optimizer's FP32 states already live in an engine's pages")
        state_tier = DeviceKind.SSD if self.config.ssd_bytes else DeviceKind.CPU
        for index, (name, param) in enumerate(params):
            fp16 = self.allocator.allocate(param.shape, np.float16, DeviceKind.CPU)
            fp16.write_array(param.data.astype(np.float16))
            master, moment1, moment2 = (
                self.allocator.allocate(param.shape, np.float32, state_tier)
                for _ in range(3)
            )
            # The optimizer's own states, so a stepped optimizer keeps them.
            self._io(lambda: scatter(
                [master, moment1, moment2],
                [opt.master[index], opt.m[index], opt.v[index]],
            ))
            managed = _Managed(
                index=index, name=name, param=param, fp16=fp16,
                master=master, moment1=moment1, moment2=moment2,
            )
            self._managed.append(managed)
            self._by_param[id(param)] = managed
        # The prefetch worker moves FP16 pages under _move_lock while the
        # state I/O thread reads and writes states unlocked: a page holding
        # both would move under a state read.
        fp16_ids = {m.fp16.tensor_id for m in self._managed}
        mixed = [m.name for m in self._managed for t in (m.master, m.moment1, m.moment2)
                 if fp16_ids.intersection(t.page_list[-1].tensor_ids)]
        if mixed:
            raise ConfigurationError(f"FP32 states share a page with FP16 parameters: {mixed}")
        # From here on the pages are the only copy (Section 4.1).
        opt.master[:] = opt.m[:] = opt.v[:] = [None] * len(params)

    def _io(self, fn):
        """Run a paged-state I/O op under the configured retry policy."""
        policy = self.config.retry_policy
        if policy is None:
            return fn()
        return policy.run(fn)

    def _install_hooks(self) -> None:
        #: The update sweep's unit (Algorithm 2's layer): each hooked
        #: module's parameters, in module order.
        self._groups = []
        for module in self.module.modules():
            if module._parameters:
                module.add_forward_hook(self._on_module_forward)
                self._groups.append(
                    [self._by_param[id(p)] for p in module._parameters.values()]
                )
        indices = sorted(m.index for group in self._groups for m in group)
        if indices != list(range(len(self._managed))):
            raise ConfigurationError("every parameter must belong to exactly one module")

    def _on_module_forward(self, module: Module) -> None:
        """Fetch (sync) or await (pipelined) the module's parameter pages."""
        if not self._order_recorded:
            self._module_order.append(module)
        needed = [self._by_param[id(p)] for p in module._parameters.values()]
        if self._pipeline is not None:
            self._await_module(module)
        with self._move_lock:
            missing = [
                m for m in needed if m.fp16.device_kind != DeviceKind.GPU
            ]
            hits = len(needed) - len(missing)
            self.prefetch_hits += hits
            self._hits_counter.inc(hits)
            if missing:
                self.demand_fetches += len(missing)
                self._demand_counter.inc(len(missing))
                started = self.telemetry.clock.perf()
                self._demand_fetch(missing, pinned={m.index for m in needed})
                self._demand_seconds += self.telemetry.clock.perf() - started
            for managed in needed:
                self._fetch(managed)

    def _await_module(self, module: Module) -> None:
        """Release due schedule triggers and wait for this layer's fetch.

        The first visit in an iteration is the layer's forward op; a
        revisit (recompute during backward) lands at a later horizon, so
        ``advance`` — which is monotonic — simply keeps the released
        horizon at the furthest op seen.
        """
        layer = self._layer_of_module.get(id(module))
        if layer is None:
            return  # module appeared after recording; demand path covers it
        self._pipeline.advance(layer)
        stalled = self._pipeline.await_layer(layer, layer)
        if stalled > 0.0:
            self._stall_seconds += stalled
            self.telemetry.record_stall("cpu->gpu", stalled)

    # ------------------------------------------------------------------
    # Demand fetch + LRU eviction
    # ------------------------------------------------------------------
    def _fetch(self, managed: _Managed) -> None:
        """Touch a GPU-staged parameter and hand its bytes to compute."""
        self._clock += 1
        if managed.first_access < 0:
            managed.first_access = self._clock
        managed.last_access = self._clock
        self._lru[managed.index] = managed
        self._lru.move_to_end(managed.index)
        # The compute path reads the buffered FP16 parameters.
        np.copyto(managed.param.data, managed.fp16.read_array())

    def _demand_fetch(self, missing: list[_Managed], pinned: set[int]) -> None:
        """Stage ``missing`` on the GPU: ask, evict until it fits, move.

        The pool is never asked for room it does not have: victims leave
        in ONE batched move, least recently used first, never from
        ``pinned``. Only when nothing evictable is left and the pages
        still do not fit does the GPU move raise — an OutOfMemoryError
        that reaches the caller, with the pinned set in its forensics.
        """
        tensors = [m.fp16 for m in missing]
        pages_to_move = self.allocator.pages_to_move
        gpu_pool = self.allocator.pool(DeviceKind.GPU)
        # Asked again after an eviction: a victim's tail page may be
        # shared with a tensor being fetched and leave with it.
        while (short := len(pages_to_move(tensors, DeviceKind.GPU))
               - gpu_pool.free_pages) > 0:
            victims: list[_Managed] = []
            for index, candidate in self._lru.items():
                if index not in pinned:
                    victims.append(candidate)
                    short -= len(pages_to_move([candidate.fp16], DeviceKind.CPU))
                    if short <= 0:
                        break
            if not victims:
                # About to fail: record what could not move.
                self.forensics.set_context(
                    pinned=sorted(self._managed[i].name for i in pinned)
                )
                break
            for victim in victims:
                del self._lru[victim.index]
            self._evict_counter.inc(len(victims))
            self.allocator.move_pages([v.fp16 for v in victims], DeviceKind.CPU)
        self.allocator.move_pages(tensors, DeviceKind.GPU)

    # ------------------------------------------------------------------
    # Pipelined runtime (schedule-driven, Section 4.3 live)
    # ------------------------------------------------------------------
    def _start_pipeline(self) -> None:
        """Plan the recorded iteration and start the background workers.

        Runs once, at the end of the first (recording) step. The plan is
        either the one injected via ``config.plan`` or built from the
        engine's own trace through the unified planning pipeline; both go
        through the same :class:`IterationPlan` currency the simulator
        and ``repro check --schedule`` consume.
        """
        # Deferred imports: liveplan pulls in the scheduler stack, which
        # builds on this engine.
        from repro.engine.liveplan import build_live_plan, live_layer_modules
        from repro.runtime.pipeline import (
            PrefetchWorker,
            WritebackQueue,
            coalesce_schedule,
        )

        modules = live_layer_modules(self)
        plan = self.config.plan
        if plan is None:
            telemetry = self.telemetry if self.telemetry.enabled else None
            plan = build_live_plan(self, telemetry=telemetry)
        if plan.trace.num_layers != len(modules):
            raise ConfigurationError(
                f"injected plan covers {plan.trace.num_layers} layers but the "
                f"engine recorded {len(modules)} parameterized modules"
            )
        self._live_plan = plan
        self._layer_modules = modules
        self._layer_of_module = {id(m): i for i, m in enumerate(modules)}
        self._layer_managed = [
            [self._by_param[id(p)] for p in m._parameters.values()]
            for m in modules
        ]
        self._install_cache(plan)
        self._writeback = WritebackQueue(self._io, telemetry=self.telemetry)
        self._writeback.start()
        worker = PrefetchWorker(
            coalesce_schedule(plan.schedule),
            self._pipeline_fetch,
            self._pipeline_evict,
            num_ops=plan.trace.num_ops,
            window=PREFETCH_WINDOW,
            telemetry=self.telemetry,
        )
        worker.start()
        worker.begin_iteration()
        self._pipeline = worker

    def _install_cache(self, plan) -> int:
        """Pin the planned dynamic GPU cache's FP32 states in the GPU pool.

        Best-effort: the plan reasons about logical shard bytes, while the
        engine gives every small tensor its own physical page, so the
        physical footprint can exceed the planned one. Layers are
        installed (coldest-planned first, matching the plan's reverse
        admission) while the pool keeps a reserve large enough to stage
        the two largest FP16 working sets — the demand path must never be
        starved by the cache. Cached states are invisible to LRU eviction
        (``_lru`` only holds FP16 parameters), so they stay
        resident for the run.
        """
        cached = sorted(plan.cache.cached_layers)
        if not cached:
            return 0
        gpu_pool = self.allocator.pools[DeviceKind.GPU]
        page_bytes = self.config.page_bytes
        reserve = 2 * page_bytes * max(
            sum(len(m.fp16.page_list) for m in group)
            for group in self._layer_managed
        )
        installed = 0
        for layer in reversed(cached):
            tensors = [
                t
                for m in self._layer_managed[layer]
                for t in (m.master, m.moment1, m.moment2)
            ]
            pending = {
                id(page)
                for t in tensors
                for page in t.page_list
                if page.pool is not gpu_pool
            }
            if gpu_pool.free_bytes - len(pending) * page_bytes < reserve:
                break
            with self._move_lock:
                self.allocator.move_pages(tensors, DeviceKind.GPU)
            self._cache_resident.add(layer)
            installed += 1
        self.telemetry.gauge("cache.live_layers").set(installed)
        return installed

    def _pipeline_fetch(self, layer: int) -> bool:
        """Worker callback: stage one layer's FP16 pages onto the GPU.

        Never evicts: returns False, moving nothing, when they do not fit.
        """
        group = self._layer_managed[layer]
        tensors = [m.fp16 for m in group]
        with self._move_lock:
            free_pages = self.allocator.pool(DeviceKind.GPU).free_pages
            if len(self.allocator.pages_to_move(tensors, DeviceKind.GPU)) > free_pages:
                return False
            self.allocator.move_pages(tensors, DeviceKind.GPU)
            # A staged layer keeps its place in access order: eviction
            # stays least-recently-*used*, not least-recently-staged
            # (never-accessed parameters tie; lowest index leaves first).
            self._lru.update((m.index, m) for m in group)
            self._lru = OrderedDict(sorted(
                self._lru.items(),
                key=lambda item: (item[1].last_access, item[0]),
            ))
        return True

    def _pipeline_evict(self, layer: int) -> None:
        """Worker callback: return one layer's FP16 pages to the CPU."""
        group = self._layer_managed[layer]
        with self._move_lock:
            self.allocator.move_pages([m.fp16 for m in group], DeviceKind.CPU)
            for managed in group:
                self._lru.pop(managed.index, None)

    def executed_plan(self) -> "IterationPlan | None":
        """The plan the live pipeline executes (None before it starts)."""
        return self._live_plan

    def pipeline_report(self) -> dict:
        """Overlap accounting for profile output and run reports."""
        report = {
            "enabled": self._pipeline is not None,
            "stall_seconds": self._stall_seconds,
            "demand_fetch_seconds": self._demand_seconds,
            "cached_layers_live": len(self._cache_resident),
            "inline_state_reads": self.inline_state_reads,
        }
        if self._pipeline is not None:
            report["prefetch"] = self._pipeline.stats()
        if self._writeback is not None:
            report["writeback"] = self._writeback.stats()
        return report

    # ------------------------------------------------------------------
    # Figure 6 training API
    # ------------------------------------------------------------------
    def __call__(self, batch: Batch) -> Tensor:
        if self._writeback is not None:
            self._read_states_ahead()
        with self.telemetry.span(
            f"fwd/iter{self._iteration}", track="train"
        ):
            logits = self.module(batch.inputs, mixed_precision=True)
            return cross_entropy(logits, batch.targets)

    def backward(self, loss: Tensor) -> None:
        with self.telemetry.span(
            f"bwd/iter{self._iteration}", track="train"
        ):
            self.module.zero_grad()
            loss.backward()
            # Offload gradients to the CPU buffers (Algorithm 2, line 24).
            self._buffers.accumulate_all([m.param for m in self._managed])
        if self._pipeline is not None:
            # Backward is complete: every backward-phase trigger is due
            # (op convention: backward of layer i is op 2L - 1 - i).
            self._pipeline.advance(2 * len(self._layer_modules) - 1)

    def step(self) -> bool:
        """Run (or defer) the optimizer pass; returns True if it ran."""
        self._iteration += 1
        self._pending += 1
        if not self._order_recorded and self._module_order:
            # The first iteration's access pattern is now complete; later
            # iterations replay it (Section 4.2).
            self._order_recorded = True
        self.telemetry.counter("engine.steps").inc()
        if self._pipeline is not None:
            # Everything up to the last update op is now due; surface any
            # worker failure on the training thread (step boundary).
            self._pipeline.advance(self._live_plan.trace.num_ops - 1)
            self._pipeline.raise_if_failed()
        if self._writeback is not None:
            self._writeback.raise_if_failed()
        ran = self._pending >= self.config.update_interval
        if ran:
            self._update_sweep()
            self._pending = 0
        self._lag_gauge.set(self._pending)
        self.forensics.sample(self._iteration, self.memory_report())
        if self.config.pipeline and self._pipeline is None and self._order_recorded:
            self._start_pipeline()
        elif self._pipeline is not None:
            # Close out this iteration's schedule and re-arm it: the
            # recorded pattern replays every iteration (Section 4.2).
            self._pipeline.finish_iteration()
            self._pipeline.begin_iteration()
        return ran

    def _update_sweep(self) -> None:
        """One updating-thread pass: page in FP32 states, apply Adam,
        page out (Algorithm 2, lines 2-7)."""
        telemetry = self.telemetry
        started = telemetry.clock.perf() if telemetry.enabled else 0.0
        with telemetry.span(f"update_sweep/iter{self._iteration}", track="updater"):
            self._sweep_body()
        if telemetry.enabled:
            telemetry.histogram("updater.sweep_seconds").observe(
                telemetry.clock.perf() - started
            )
            telemetry.counter("engine.update_sweeps").inc()

    @staticmethod
    def _layer_states(group) -> list[PagedTensor]:
        """``group``'s paged FP32 states: master, m, v per parameter."""
        return [t for m in group for t in (m.master, m.moment1, m.moment2)]

    def _read_states_ahead(self) -> None:
        """If this iteration's step will sweep, queue each off-GPU layer's
        FP32-state read on the state I/O thread, in sweep order, behind
        the previous sweep's writes (one FIFO: read-your-writes)."""
        if self._read_ahead or self._pending + 1 < self.config.update_interval:
            return
        for layer in reversed(range(len(self._groups))):
            states = self._layer_states(self._groups[layer])
            if all(t.device_kind == DeviceKind.GPU for t in states):
                continue  # GPU-cache-resident: a pool read in the sweep
            hosts = [np.empty(t.shape, t.dtype) for t in states]
            if not self._writeback.submit_read(
                layer, partial(gather, states, hosts)
            ):
                return  # the thread failed; step() raises its error
            self._read_ahead[layer] = hosts

    def _sweep_body(self) -> None:
        """Per layer, last first: its FP32 states (read ahead, or ONE
        vectored read here), Adam, the FP16 refresh, ONE vectored write
        (Algorithm 2, lines 2-7)."""
        opt = self.optimizer
        writeback = self._writeback
        read_ahead, self._read_ahead = self._read_ahead, {}
        if writeback is not None:
            # The previous sweep's writes, then this iteration's reads:
            # once the FIFO drains the staged arrays are the sweep's, and
            # a tier death surfaces here, before any state has changed.
            writeback.barrier()
        opt.bump_step()
        for layer in reversed(range(len(self._groups))):
            live = []
            for slot, managed in enumerate(self._groups[layer]):
                grad, count = self._buffers.drain(managed.index)
                if count:
                    if count > 1:
                        grad /= count
                    live.append((slot, managed, grad))
            if not live:
                continue
            states = self._layer_states(m for _, m, _ in live)
            threaded = writeback is not None and any(
                t.device_kind != DeviceKind.GPU for t in states)
            staged = read_ahead.get(layer)
            if staged is not None:
                hosts = [a for slot, _, _ in live for a in staged[3 * slot:3 * slot + 3]]
            else:
                hosts = [np.empty(t.shape, t.dtype) for t in states]
                if threaded:
                    self.inline_state_reads += 1
                # Transient faults are retried; permanent tier death escalates.
                self._io(partial(gather, states, hosts))
            for k, (_, managed, grad) in enumerate(live):
                master, m, v = hosts[3 * k:3 * k + 3]
                opt._apply(master, grad, m, v)
                # p'16 is rounded once (line 13); the page stores its float16
                # encoding and the parameter keeps the array itself.
                refreshed = round_fp16(master)
                # The FP16 refresh stays synchronous: the very next forward
                # reads it, and deferring it would reintroduce staleness.
                with self._move_lock:
                    managed.fp16.write_array(refreshed.astype(np.float16))
                managed.param.data = refreshed
            # The queued write holds ``hosts`` until it lands.
            flush = partial(scatter, states, hosts)
            if threaded:
                writeback.submit(layer, flush)  # off the critical path
            else:
                # No pipeline, or GPU-cache-resident states: a pool write.
                self._io(flush)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def access_trace(self) -> list[tuple[str, int, int]]:
        """(name, first_id, end_id) per parameter — the Tracer's view."""
        return [
            (m.name, m.first_access, m.last_access)
            for m in self._managed
            if m.first_access >= 0
        ]

    def memory_report(self) -> dict[str, dict[str, int]]:
        return self.allocator.residency_report()

    def barrier(self) -> None:
        """Block until all queued FP32-state I/O has landed, so the pages
        hold every FP32 state's latest value (checkpoints)."""
        if self._writeback is not None:
            self._writeback.barrier()

    def close(self) -> None:
        try:
            if self._pipeline is not None:
                self._pipeline.stop()
                self._pipeline = None
            if self._writeback is not None:
                try:
                    self.barrier()
                finally:
                    writeback, self._writeback = self._writeback, None
                    writeback.close()
        finally:
            self.allocator.close()

    def __enter__(self) -> "AngelModel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def initialize(
    model: Module, optimizer: MixedPrecisionAdam, config: AngelConfig | None = None
) -> AngelModel:
    """Figure 6's ``angelptm.initialize(model, optimizer, config)``."""
    return AngelModel(model, optimizer, config or AngelConfig())
