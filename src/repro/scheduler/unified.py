"""The Unified Scheduler: coordinates Allocator, Executor and Communicator.

Takes the Tracer statistics, runs Algorithm 1, plans the dynamic GPU cache
and replays the resulting task schedule on the discrete-event simulator.
One data-parallel rank is simulated (ranks are symmetric under ZeRO data
parallelism); collective durations already account for the full ring.

Stream layout mirrors Section 5's implementation: a GPU compute stream, a
CPU update stream, per-direction PCIe channels, an NCCL channel, and an
SSD I/O queue.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.hardware.cluster import ClusterSpec
from repro.memory.page import DEFAULT_PAGE_BYTES
from repro.models.zoo import ModelConfig
from repro.scheduler.cache import CachePlan, plan_gpu_cache
from repro.scheduler.lifetime import LifetimeScheduler
from repro.scheduler.memory_model import MemoryModel
from repro.scheduler.pages import LayerPages, build_layer_pages
from repro.scheduler.tasks import Operation, Schedule
from repro.sim.engine import Simulator, SimTask
from repro.sim.timeline import Timeline
from repro.tracer.costmodel import CostModel
from repro.tracer.tracer import IterationTrace, Tracer
from repro.zero.collectives import CollectiveModel
from repro.zero.sharding import shard_bytes


@dataclass(frozen=True)
class IterationPlan:
    """Everything derived for one training iteration."""

    trace: IterationTrace
    schedule: Schedule
    cache: CachePlan
    layer_pages: list[LayerPages]
    num_ranks: int
    micro_batch: int


def plan_iteration(
    trace: IterationTrace,
    gpu_budget_bytes: int,
    num_ranks: int = 1,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    micro_batch: int = 1,
    use_recompute: bool = True,
    telemetry=None,
) -> IterationPlan:
    """Run the planning pipeline on an already-obtained trace.

    This is THE planning path: :meth:`UnifiedScheduler.plan` feeds it the
    analytic Tracer's trace, and the live functional engine feeds it the
    trace recorded from its own first iteration (see
    :mod:`repro.engine.liveplan`) — so one :class:`IterationPlan` object
    flows sim → live engine → verifier without re-planning.
    """
    layer_pages = build_layer_pages(trace, num_ranks, page_bytes)
    cache = plan_gpu_cache(
        trace, layer_pages, gpu_budget_bytes, num_ranks,
        use_recompute=use_recompute,
        telemetry=telemetry if telemetry is not None and telemetry.enabled else None,
    )
    memory = MemoryModel(
        trace,
        gpu_budget_bytes,
        num_ranks=num_ranks,
        cache_bytes=cache.cache_bytes,
        use_recompute=use_recompute,
    )
    schedule = LifetimeScheduler(trace, layer_pages, memory).schedule()
    return IterationPlan(
        trace=trace,
        schedule=schedule,
        cache=cache,
        layer_pages=layer_pages,
        num_ranks=num_ranks,
        micro_batch=micro_batch,
    )


@dataclass(frozen=True)
class IterationResult:
    """Outcome of simulating one iteration on one rank."""

    iteration_time: float
    samples_per_second: float
    timeline: Timeline
    gpu_busy_fraction: float
    pcie_busy_fraction: float
    update_sweep_time: float
    staleness: float
    plan: IterationPlan = field(repr=False, default=None)

    def breakdown(self) -> dict[str, float]:
        """Stream-kind busy times and their fraction of the iteration.

        Returns ``{kind: seconds, f"{kind}_fraction": fraction, ...}`` for
        the compute/pcie/nccl/cpu/ssd stream kinds plus the bottleneck
        stream — the view the CLI and examples print.
        """
        out: dict[str, float] = {}
        for kind in ("compute", "pcie", "nccl", "cpu", "ssd"):
            busy = self.timeline.busy_time(kind=kind)
            out[kind] = busy
            out[f"{kind}_fraction"] = (
                busy / self.iteration_time if self.iteration_time else 0.0
            )
        out["critical_stream"] = self.timeline.critical_stream()
        return out


class UnifiedScheduler:
    """Plans and simulates Angel-PTM iterations on a given cluster."""

    #: Relative cost the event-driven scheduler adds to every
    #: computation (hooks, page bookkeeping, event dispatch). The paper
    #: measures it as a ~2.4% slowdown against vanilla data parallelism on
    #: the 1.7B model (Section 6.3).
    OP_OVERHEAD_FRACTION = 0.03

    def __init__(
        self,
        cluster: ClusterSpec,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        use_recompute: bool = True,
        gpu_reserve_fraction: float = 0.08,
        cost_model: CostModel | None = None,
    ):
        self.cluster = cluster
        self.page_bytes = page_bytes
        self.use_recompute = use_recompute
        if not 0 <= gpu_reserve_fraction < 1:
            raise SchedulingError("gpu_reserve_fraction must be in [0, 1)")
        self.gpu_reserve_fraction = gpu_reserve_fraction
        server = cluster.server
        self.cost = cost_model or CostModel(gpu=server.gpus[0], cpu=server.cpu)
        self.collectives = CollectiveModel(cluster)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    @property
    def gpu_budget(self) -> int:
        """Per-GPU bytes available to the scheduler after the framework
        reserve (CUDA context, workspaces, fragmentation headroom)."""
        per_gpu = self.cluster.server.gpus[0].memory_bytes
        return int(per_gpu * (1 - self.gpu_reserve_fraction))

    def plan(self, config: ModelConfig, micro_batch: int, seq_len: int = 2048) -> IterationPlan:
        """Trace the model, size the GPU cache and run Algorithm 1."""
        model = config.build(batch_size=micro_batch, seq_len=seq_len)
        tracer = Tracer(self.cost, use_recompute=self.use_recompute)
        trace = tracer.trace(model)
        return plan_iteration(
            trace,
            self.gpu_budget,
            num_ranks=self.cluster.num_gpus,
            page_bytes=self.page_bytes,
            micro_batch=micro_batch,
            use_recompute=self.use_recompute,
        )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(
        self,
        config: ModelConfig,
        micro_batch: int | None,
        seq_len: int = 2048,
        use_ssd: bool = False,
        lock_free: bool = False,
    ) -> IterationResult:
        """Simulate one steady-state iteration and report throughput.

        ``micro_batch=None`` picks the largest feasible micro-batch via
        the capacity planner (the paper trains "with the maximum batch
        size", Section 6.3).
        """
        if micro_batch is None:
            from repro.engine.planner import CapacityPlanner

            planner = CapacityPlanner(self.cluster, cost_model=self.cost)
            micro_batch = planner.max_micro_batch(
                config, "angel-ptm", seq_len=seq_len, use_ssd=use_ssd
            )
        plan = self.plan(config, micro_batch, seq_len)
        return self.simulate_plan(plan, use_ssd=use_ssd, lock_free=lock_free)

    def simulate_plan(
        self,
        plan: IterationPlan,
        use_ssd: bool = False,
        lock_free: bool = False,
        steady_state: bool = False,
    ) -> IterationResult:
        """Replay the plan on the DES and report iteration metrics.

        ``steady_state=True`` chains two iterations — iteration 2's
        parameter movements wait on iteration 1's corresponding updates —
        and reports the marginal (steady-state) iteration time, which is
        what long pre-training runs actually observe.
        """
        sim = Simulator()
        first = self._build_iteration(
            sim, plan, use_ssd=use_ssd, prefix="", prev=None,
            lock_free=lock_free,
        )
        second = None
        if steady_state:
            second = self._build_iteration(
                sim, plan, use_ssd=use_ssd, prefix="i2.", prev=first,
                lock_free=lock_free,
            )

        timeline = sim.run()

        def ends(iteration):
            gpu_end = max(
                (timeline.end_of(t.name) for t in iteration["computes"].values()),
                default=0.0,
            )
            gpu_end = max(
                gpu_end,
                max(
                    (timeline.end_of(t.name) for t in iteration["offloads"].values()),
                    default=0.0,
                ),
            )
            all_end = max(
                (timeline.end_of(t.name) for t in iteration["updates"]),
                default=gpu_end,
            )
            return gpu_end, max(all_end, gpu_end)

        first_gpu_end, first_all_end = ends(first)
        if steady_state:
            second_gpu_end, second_all_end = ends(second)
            gpu_path = second_gpu_end - first_gpu_end
            full_time = second_all_end - first_all_end
        else:
            gpu_path = first_gpu_end
            full_time = first_all_end
        update_sweep = max(0.0, first_all_end - min(
            (timeline.end_of(t.name) for t in first["offloads"].values()),
            default=0.0,
        ))
        if lock_free:
            # Algorithm 2 decouples updates from the GPU path: the
            # iteration is GPU-bound and the update sweep lags behind,
            # folding accumulated gradients into each pass.
            iteration_time = gpu_path
            staleness = update_sweep / gpu_path if gpu_path > 0 else 0.0
        else:
            iteration_time = full_time
            staleness = 0.0
        global_batch = plan.micro_batch * plan.num_ranks
        return IterationResult(
            iteration_time=iteration_time,
            samples_per_second=global_batch / iteration_time if iteration_time else 0.0,
            timeline=timeline,
            gpu_busy_fraction=timeline.utilization(stream="gpu"),
            pcie_busy_fraction=timeline.utilization(kind="pcie"),
            update_sweep_time=update_sweep,
            staleness=staleness,
            plan=plan,
        )

    def _build_iteration(
        self,
        sim: Simulator,
        plan: IterationPlan,
        use_ssd: bool,
        prefix: str,
        prev: dict | None,
        lock_free: bool = False,
    ) -> dict:
        """Add one iteration's task graph; returns its task handles.

        When ``prev`` is given (steady-state mode), each layer's parameter
        movement additionally waits for that layer's update in the
        previous iteration — stale parameters cannot be staged.
        """
        trace = plan.trace
        server = self.cluster.server
        num_ranks = plan.num_ranks
        gpu = sim.stream("gpu", "compute")
        h2d = sim.stream("h2d", "pcie")
        d2h = sim.stream("d2h", "pcie")
        nccl = sim.stream("nccl", "nccl")
        cpu = sim.stream("cpu", "cpu")
        ssd = sim.stream("ssd", "ssd")

        compute_tasks: dict[int, SimTask] = {}
        gather_tasks: dict[int, SimTask] = {}
        offload_tasks: dict[int, SimTask] = {}
        update_of_layer: dict[int, SimTask] = {}
        update_tasks: list[SimTask] = []

        # Group movement tasks by (trigger, layer) to coalesce PCIe bursts.
        moves: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        evictions: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        gathers: dict[int, list] = defaultdict(list)
        computes: dict[int, int] = {}
        for task in plan.schedule:
            if task.operation == Operation.MOVE_TO_GPU:
                moves[task.trigger_id][task.layer_index] += task.nbytes
            elif task.operation == Operation.MOVE_TO_CPU:
                evictions[task.trigger_id][task.layer_index] += task.nbytes
            elif task.operation == Operation.ALL_GATHER:
                gathers[task.trigger_id].append(task)
            elif task.operation == Operation.COMPUTE:
                computes[task.op_id] = task.layer_index

        layer_by_index = {layer.layer_index: layer for layer in trace.layers}
        seen_bwd: set[int] = set()

        for op_id in sorted(computes):
            trigger_dep = (
                [compute_tasks[op_id - 1]] if op_id - 1 in compute_tasks else []
            )
            # Movement and gather tasks released at this trigger.
            for layer_index, nbytes in sorted(evictions.get(op_id, {}).items()):
                sim.add_task(
                    f"{prefix}evict.l{layer_index}.t{op_id}",
                    d2h,
                    server.pcie.transfer_time(nbytes),
                    deps=trigger_dep,
                )
            for layer_index, nbytes in sorted(moves.get(op_id, {}).items()):
                deps = list(trigger_dep)
                if (
                    prev is not None
                    and not lock_free
                    and layer_index in prev["update_of_layer"]
                ):
                    # Steady state: re-staging waits for the previous
                    # iteration's refreshed parameters. Under the
                    # lock-free mechanism the GPU reads the buffered
                    # (possibly stale) parameters and never waits.
                    deps.append(prev["update_of_layer"][layer_index])
                sim.add_task(
                    f"{prefix}move.l{layer_index}.t{op_id}",
                    h2d,
                    server.pcie.transfer_time(nbytes),
                    deps=deps,
                )
            for task in gathers.get(op_id, []):
                duration = self.collectives.all_gather(task.nbytes, num_ranks)
                gather_tasks[task.op_id] = sim.add_task(
                    f"{prefix}gather.l{task.layer_index}.op{task.op_id}",
                    nccl,
                    duration,
                    deps=trigger_dep,
                )
            layer_index = computes[op_id]
            layer = layer_by_index[layer_index]
            is_backward = op_id >= trace.num_layers
            duration = layer.fwd_time
            if is_backward:
                duration = layer.bwd_time + layer.recompute_time
            duration *= 1.0 + self.OP_OVERHEAD_FRACTION
            deps = []
            if op_id in gather_tasks:
                deps.append(gather_tasks[op_id])
            if not compute_tasks and prev is not None:
                # The next iteration's first computation follows the
                # previous iteration's last (one GPU stream).
                last_prev = max(prev["computes"])
                deps.append(prev["computes"][last_prev])
            compute_tasks[op_id] = sim.add_task(
                f"{prefix}{'bwd' if is_backward else 'fwd'}.l{layer_index}.op{op_id}",
                gpu,
                duration,
                deps=deps,
            )
            if is_backward and layer_index not in seen_bwd:
                seen_bwd.add(layer_index)
                reduce = sim.add_task(
                    f"{prefix}rs.l{layer_index}",
                    nccl,
                    self.collectives.reduce_scatter(layer.grad_bytes_fp16, num_ranks),
                    deps=[compute_tasks[op_id]],
                )
                if plan.cache.is_cached(layer_index):
                    offload_tasks[layer_index] = reduce
                else:
                    grad_shard = shard_bytes(layer.grad_bytes_fp16, num_ranks)
                    offload_tasks[layer_index] = sim.add_task(
                        f"{prefix}offload.l{layer_index}",
                        d2h,
                        server.pcie.transfer_time(grad_shard),
                        deps=[reduce],
                    )

        # Optimizer updates, in reverse layer order (Algorithm 2).
        ssd_link = server.ssd_io
        for layer in reversed(trace.layers):
            li = layer.layer_index
            grad_ready = offload_tasks[li]
            optim_shard = shard_bytes(layer.optim_bytes_fp32, num_ranks)
            params_shard = layer.param_count // num_ranks
            if plan.cache.is_cached(li):
                update = sim.add_task(
                    f"{prefix}upd.gpu.l{li}", gpu,
                    self.cost.update_time(params_shard, server.gpus[0]),
                    deps=[grad_ready],
                )
                update_tasks.append(update)
                update_of_layer[li] = update
                continue
            deps = [grad_ready]
            if use_ssd:
                if ssd_link is None:
                    raise SchedulingError("cluster has no SSD tier configured")
                read = sim.add_task(
                    f"{prefix}ssd.read.l{li}", ssd,
                    ssd_link.transfer_time(optim_shard),
                )
                deps.append(read)
            update = sim.add_task(
                f"{prefix}upd.cpu.l{li}", cpu,
                self.cost.cpu_update_time(params_shard),
                deps=deps,
            )
            update_tasks.append(update)
            update_of_layer[li] = update
            if use_ssd:
                write = sim.add_task(
                    f"{prefix}ssd.write.l{li}", ssd,
                    ssd_link.transfer_time(optim_shard),
                    deps=[update],
                )
                update_tasks.append(write)
                update_of_layer[li] = write

        return {
            "computes": compute_tasks,
            "offloads": offload_tasks,
            "updates": update_tasks,
            "update_of_layer": update_of_layer,
        }
