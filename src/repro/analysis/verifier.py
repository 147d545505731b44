"""Static schedule verification: prove Algorithm 1's output safe.

The verifier replays a :class:`~repro.scheduler.tasks.Schedule`
*symbolically* — no pools, no simulator, no numpy kernels — against the
same :class:`~repro.scheduler.memory_model.MemoryModel` arithmetic the
scheduler planned with, and proves (or produces counterexamples for) the
invariant catalog in :mod:`repro.analysis.invariants`:

- ``use-before-fetch`` — every all-gather finds all of its layer's pages
  GPU-resident at its release trigger;
- ``oom-at-trigger`` — live bytes (trace base load + page residency +
  gathered buffers) never exceed the GPU budget at any logical op;
- ``evict-pinned`` — no eviction of a page while an in-flight gather of
  its layer still pins it (``[gather trigger, gather op]``);
- ``double-move`` / ``double-free`` — a page is never staged while
  already resident, nor evicted while absent;
- ``gather-before-use`` — every computation has its all-gather released
  at or before its own op;
- ``page-sharing`` — schedule tasks stay consistent with the layer page
  tables (valid page ids, whole-page payloads, ceil-sized shards,
  page-aligned gather buffers — the §4.1 page discipline);
- ``staleness-bound`` — the trace's update sweep runs in reverse layer
  order after each layer's backward, so Algorithm 2's lag never exceeds
  the configured ``update_interval``.

Violations carry the failing trigger id and the page's movement
provenance, and the whole result serializes for run reports and CI.
"""

from __future__ import annotations

import math

from repro.analysis.invariants import (
    DOUBLE_FREE,
    DOUBLE_MOVE,
    EVICT_PINNED,
    GATHER_BEFORE_USE,
    OOM_AT_TRIGGER,
    PAGE_SHARING,
    SCHEDULE_INVARIANTS,
    STALENESS_BOUND,
    USE_BEFORE_FETCH,
    Violation,
    VerificationResult,
)
from repro.errors import ConfigurationError
from repro.scheduler.memory_model import MemoryModel
from repro.scheduler.pages import LayerPages
from repro.scheduler.tasks import Operation, Schedule, index_by_trigger
from repro.tracer.tracer import IterationTrace

#: Release order within one trigger: evictions free space first,
#: staging moves fill it, gathers consume it.
_RELEASE_ORDER = {
    Operation.MOVE_TO_CPU: 0,
    Operation.MOVE_TO_GPU: 1,
    Operation.ALL_GATHER: 2,
}


class ScheduleVerifier:
    """Symbolic replay of one schedule against the memory model."""

    def __init__(
        self,
        trace: IterationTrace,
        layer_pages: list[LayerPages],
        schedule: Schedule,
        gpu_budget_bytes: int,
        num_ranks: int = 1,
        cache_bytes: int = 0,
        use_recompute: bool = True,
        update_interval: int = 1,
    ):
        if update_interval < 1:
            raise ConfigurationError("update_interval must be >= 1")
        self._trace = trace
        self._pages = {table.layer_index: table for table in layer_pages}
        self._schedule = schedule
        self._budget = gpu_budget_bytes
        self._num_ranks = num_ranks
        self._cache_bytes = cache_bytes
        self._use_recompute = use_recompute
        self._update_interval = update_interval
        self._bwd_of = {
            layer.layer_index: layer.bwd_id for layer in trace.layers
        }

    @classmethod
    def for_plan(cls, plan, gpu_budget_bytes: int, update_interval: int = 1):
        """Build a verifier from a scheduler ``IterationPlan``."""
        return cls(
            trace=plan.trace,
            layer_pages=plan.layer_pages,
            schedule=plan.schedule,
            gpu_budget_bytes=gpu_budget_bytes,
            num_ranks=plan.num_ranks,
            cache_bytes=plan.cache.cache_bytes,
            update_interval=update_interval,
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def verify(self) -> VerificationResult:
        violations: list[Violation] = []
        valid_tasks = self._check_page_tables(violations)
        intervals, gathers = self._replay(valid_tasks, violations)
        peak = self._check_memory(intervals, gathers, violations)
        self._check_gather_coverage(violations)
        self._check_staleness(violations)
        violations.sort(
            key=lambda v: (SCHEDULE_INVARIANTS.index(v.invariant), v.trigger_id)
        )
        return VerificationResult(
            model_name=self._trace.model_name,
            violations=violations,
            stats={
                "tasks": len(self._schedule),
                "triggers": len({t.trigger_id for t in self._schedule}),
                "num_ops": self._trace.num_ops,
                "gpu_budget_bytes": self._budget,
                "peak_live_bytes": peak,
                "update_interval": self._update_interval,
            },
        )

    # ------------------------------------------------------------------
    # page-sharing: schedule <-> page-table consistency (§4.1 discipline)
    # ------------------------------------------------------------------
    def _check_page_tables(self, violations: list[Violation]) -> list:
        """Validate every task's page reference; returns the valid tasks.

        Tasks with out-of-table references are reported once and dropped
        from the replay so one bad reference doesn't cascade into
        double-move/OOM noise.
        """
        for table in self._pages.values():
            expected = max(1, math.ceil(table.shard_bytes / table.page_bytes))
            if table.num_pages != expected:
                violations.append(Violation(
                    invariant=PAGE_SHARING,
                    trigger_id=0,
                    layer_index=table.layer_index,
                    message=(
                        f"layer {table.layer_index} table has "
                        f"{table.num_pages} pages for a {table.shard_bytes}-byte "
                        f"shard; ceil sizing requires {expected}"
                    ),
                ))
            if table.gathered_bytes % table.page_bytes:
                violations.append(Violation(
                    invariant=PAGE_SHARING,
                    trigger_id=0,
                    layer_index=table.layer_index,
                    message=(
                        f"layer {table.layer_index} gather buffer "
                        f"({table.gathered_bytes} B) is not page-aligned "
                        f"({table.page_bytes}-byte pages)"
                    ),
                ))

        valid = []
        for task in self._schedule:
            if task.operation not in _RELEASE_ORDER:
                valid.append(task)
                continue
            table = self._pages.get(task.layer_index)
            if table is None:
                violations.append(Violation(
                    invariant=PAGE_SHARING,
                    trigger_id=task.trigger_id,
                    layer_index=task.layer_index,
                    page_id=task.page_id,
                    message=(
                        f"{task.operation.value} references layer "
                        f"{task.layer_index}, which has no page table"
                    ),
                ))
                continue
            if task.operation == Operation.ALL_GATHER:
                valid.append(task)
                continue
            if not 0 <= task.page_id < table.num_pages:
                violations.append(Violation(
                    invariant=PAGE_SHARING,
                    trigger_id=task.trigger_id,
                    layer_index=task.layer_index,
                    page_id=task.page_id,
                    message=(
                        f"{task.operation.value} references page "
                        f"{task.page_id} outside layer {task.layer_index}'s "
                        f"{table.num_pages} pages"
                    ),
                ))
                continue
            if task.nbytes != table.page_nbytes(task.page_id):
                violations.append(Violation(
                    invariant=PAGE_SHARING,
                    trigger_id=task.trigger_id,
                    layer_index=task.layer_index,
                    page_id=task.page_id,
                    message=(
                        f"{task.operation.value} of layer {task.layer_index} "
                        f"page {task.page_id} moves {task.nbytes} B, not the "
                        f"whole {table.page_nbytes(task.page_id)}-byte page — "
                        f"pages are the minimum unit of memory operations"
                    ),
                ))
                continue
            valid.append(task)
        return valid

    # ------------------------------------------------------------------
    # Replay: residency, use-before-fetch, pinning, double-move/free
    # ------------------------------------------------------------------
    def _replay(
        self, tasks: list, violations: list[Violation]
    ) -> tuple[dict, list]:
        """Walk triggers in order; returns (residency intervals, gathers).

        Residency intervals are ``{(layer, page): [[start, end], ...]}``
        over logical ops, derived purely from the task list (plus the
        post-backward release of a layer's shard pages).
        """
        by_trigger = index_by_trigger(
            tasks, exclude=frozenset({Operation.COMPUTE})
        )
        # Pins: (layer -> list of (gather trigger, gather op)) windows.
        pins: dict[int, list[tuple[int, int]]] = {}
        for task in tasks:
            if task.operation == Operation.ALL_GATHER:
                pins.setdefault(task.layer_index, []).append(
                    (task.trigger_id, max(task.trigger_id, task.op_id))
                )

        resident: dict[tuple[int, int], int] = {}  # key -> move trigger
        history: dict[tuple[int, int], list] = {}
        intervals: dict[tuple[int, int], list[list[int]]] = {}
        gathers: list = []
        last_op = self._trace.num_ops - 1

        def close(key: tuple[int, int], start: int, end: int) -> None:
            if start <= end:
                intervals.setdefault(key, []).append(
                    [start, min(end, last_op)]
                )

        triggers = sorted(set(by_trigger) | set(self._bwd_of.values()))
        for trigger in triggers:
            for task in sorted(
                by_trigger.get(trigger, []),
                key=lambda t: _RELEASE_ORDER[t.operation],
            ):
                key = (task.layer_index, task.page_id)
                if task.operation == Operation.MOVE_TO_GPU:
                    events = history.setdefault(key, [])
                    if key in resident:
                        violations.append(Violation(
                            invariant=DOUBLE_MOVE,
                            trigger_id=trigger,
                            layer_index=task.layer_index,
                            page_id=task.page_id,
                            message=(
                                f"page l{key[0]}.p{key[1]} staged at trigger "
                                f"{trigger} while already GPU-resident since "
                                f"trigger {resident[key]}"
                            ),
                            provenance=tuple(events),
                        ))
                        continue
                    resident[key] = trigger
                    events.append((trigger, "move_to_gpu"))
                elif task.operation == Operation.MOVE_TO_CPU:
                    events = history.setdefault(key, [])
                    if key not in resident:
                        violations.append(Violation(
                            invariant=DOUBLE_FREE,
                            trigger_id=trigger,
                            layer_index=task.layer_index,
                            page_id=task.page_id,
                            message=(
                                f"page l{key[0]}.p{key[1]} evicted at trigger "
                                f"{trigger} while not GPU-resident"
                            ),
                            provenance=tuple(events),
                        ))
                        continue
                    pinned_by = [
                        window for window in pins.get(task.layer_index, [])
                        if window[0] <= trigger <= window[1]
                    ]
                    if pinned_by:
                        start, end = pinned_by[0]
                        violations.append(Violation(
                            invariant=EVICT_PINNED,
                            trigger_id=trigger,
                            layer_index=task.layer_index,
                            page_id=task.page_id,
                            message=(
                                f"page l{key[0]}.p{key[1]} evicted at trigger "
                                f"{trigger} while pinned by its layer's "
                                f"all-gather over [{start}, {end}]"
                            ),
                            provenance=tuple(events),
                        ))
                        # Fall through: the eviction still happens, so the
                        # residency ledger stays faithful to the schedule.
                    close(key, resident.pop(key), trigger - 1)
                    events.append((trigger, "move_to_cpu"))
                elif task.operation == Operation.ALL_GATHER:
                    table = self._pages[task.layer_index]
                    missing = [
                        page_id for page_id in range(table.num_pages)
                        if (task.layer_index, page_id) not in resident
                    ]
                    if missing:
                        violations.append(Violation(
                            invariant=USE_BEFORE_FETCH,
                            trigger_id=trigger,
                            layer_index=task.layer_index,
                            page_id=missing[0],
                            message=(
                                f"all-gather of layer {task.layer_index} at "
                                f"trigger {trigger} before page(s) "
                                f"{missing} arrived"
                            ),
                            provenance=tuple(
                                history.get(
                                    (task.layer_index, missing[0]), []
                                )
                            ),
                        ))
                    gathers.append(task)
            # The runtime returns a layer's shard to the CPU right after
            # its backward; mirror that implicit release.
            for layer_index, bwd_id in self._bwd_of.items():
                if bwd_id != trigger:
                    continue
                for key in [k for k in resident if k[0] == layer_index]:
                    close(key, resident.pop(key), bwd_id)
                    history.setdefault(key, []).append(
                        (bwd_id, "post-backward release")
                    )
        # Pages never evicted nor passed by their backward (clamped ends).
        for key, start in resident.items():
            close(key, start, self._bwd_of.get(key[0], last_op))
        return intervals, gathers

    # ------------------------------------------------------------------
    # oom-at-trigger: the memory-model proof
    # ------------------------------------------------------------------
    def _memory_model(self) -> MemoryModel:
        return MemoryModel(
            self._trace,
            self._budget,
            num_ranks=self._num_ranks,
            cache_bytes=self._cache_bytes,
            use_recompute=self._use_recompute,
        )

    def _check_memory(
        self, intervals: dict, gathers: list, violations: list[Violation]
    ) -> float:
        """Populate the memory model and flag over-budget runs; returns
        the replayed peak live bytes."""
        memory = self._memory_model()
        last_op = self._trace.num_ops - 1
        for (layer_index, page_id), spans in intervals.items():
            nbytes = self._pages[layer_index].page_nbytes(page_id)
            for start, end in spans:
                memory.add_resident(nbytes, min(start, last_op), min(end, last_op))
        for task in gathers:
            end = min(max(task.trigger_id, task.op_id), last_op)
            memory.add_resident(task.nbytes, min(task.trigger_id, last_op), end)
        # One counterexample per maximal over-budget run, anchored at the
        # first trigger that overflows (the scheduling decision to blame).
        run_start = None
        worst = 0.0
        for op in range(self._trace.num_ops):
            live = memory.live_at(op)
            if live > self._budget:
                if run_start is None:
                    run_start, worst = op, live
                worst = max(worst, live)
                continue
            if run_start is not None:
                violations.append(self._oom_violation(run_start, op - 1, worst))
                run_start = None
        if run_start is not None:
            violations.append(
                self._oom_violation(run_start, self._trace.num_ops - 1, worst)
            )
        return memory.peak_live()

    def _oom_violation(self, start: int, end: int, worst: float) -> Violation:
        over = worst - self._budget
        return Violation(
            invariant=OOM_AT_TRIGGER,
            trigger_id=start,
            message=(
                f"live bytes exceed the GPU budget over triggers "
                f"[{start}, {end}]: peak {worst:.0f} B vs budget "
                f"{self._budget} B ({over:.0f} B over)"
            ),
        )

    # ------------------------------------------------------------------
    # gather-before-use: every compute has its gather, released in time
    # ------------------------------------------------------------------
    def _check_gather_coverage(self, violations: list[Violation]) -> None:
        gather_of_op = {
            task.op_id: task
            for task in self._schedule
            if task.operation == Operation.ALL_GATHER
        }
        for task in self._schedule:
            if task.operation != Operation.COMPUTE:
                continue
            gather = gather_of_op.get(task.op_id)
            if gather is None:
                violations.append(Violation(
                    invariant=GATHER_BEFORE_USE,
                    trigger_id=task.op_id,
                    layer_index=task.layer_index,
                    message=(
                        f"compute op {task.op_id} (layer {task.layer_index}) "
                        f"has no all-gather assembling its parameters"
                    ),
                ))
            elif gather.trigger_id > task.op_id:
                violations.append(Violation(
                    invariant=GATHER_BEFORE_USE,
                    trigger_id=gather.trigger_id,
                    layer_index=task.layer_index,
                    message=(
                        f"all-gather for op {task.op_id} releases at trigger "
                        f"{gather.trigger_id}, after the compute it feeds"
                    ),
                ))

    # ------------------------------------------------------------------
    # staleness-bound: Algorithm 2's update-sweep discipline on the trace
    # ------------------------------------------------------------------
    def _check_staleness(self, violations: list[Violation]) -> None:
        layers = self._trace.layers
        for layer in layers:
            if layer.update_id <= layer.bwd_id:
                violations.append(Violation(
                    invariant=STALENESS_BOUND,
                    trigger_id=layer.update_id,
                    layer_index=layer.layer_index,
                    message=(
                        f"layer {layer.layer_index} update (op "
                        f"{layer.update_id}) precedes its backward (op "
                        f"{layer.bwd_id}) — the sweep would fold a gradient "
                        f"that does not exist yet"
                    ),
                ))
        # Algorithm 2 sweeps in reverse layer order: update ids must
        # strictly decrease with the layer index, otherwise the lag of a
        # late layer exceeds the update_interval bound.
        for earlier, later in zip(layers, layers[1:]):
            if earlier.update_id <= later.update_id:
                violations.append(Violation(
                    invariant=STALENESS_BOUND,
                    trigger_id=later.update_id,
                    layer_index=later.layer_index,
                    message=(
                        f"updates of layers {earlier.layer_index} and "
                        f"{later.layer_index} are not in reverse layer order "
                        f"(ops {earlier.update_id} <= {later.update_id})"
                    ),
                ))
        # Parameter lifetimes must extend to their layer's update: a
        # param released earlier would be refreshed after it was freed.
        update_of = {layer.layer_index: layer.update_id for layer in layers}
        for access in self._trace.pattern.accesses:
            expected = update_of.get(access.layer_index)
            if expected is None or access.kind.name != "PARAM":
                continue
            if access.end_id != expected:
                violations.append(Violation(
                    invariant=STALENESS_BOUND,
                    trigger_id=access.end_id,
                    layer_index=access.layer_index,
                    tensor_id=access.tensor_id,
                    message=(
                        f"param tensor {access.tensor_id} ({access.name}) "
                        f"ends at op {access.end_id}, not at its layer's "
                        f"update op {expected}"
                    ),
                ))


def verify_plan(plan, gpu_budget_bytes: int, update_interval: int = 1):
    """One-call verification of an ``IterationPlan``."""
    return ScheduleVerifier.for_plan(
        plan, gpu_budget_bytes, update_interval=update_interval
    ).verify()
