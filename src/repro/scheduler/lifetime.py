"""Fine-grained life-time based scheduling — Algorithm 1 of the paper.

Phase 1 prioritizes ``move_to_gpu`` tasks: every shard page is optimistically
scheduled at trigger 0 (CPU-GPU transfer at 32 GB/s is the scarce path,
so it starts as early as possible); whenever a layer's computation would
not fit, the most recently scheduled movements are revoked — a
not-yet-executed move is simply removed, while a page already resident
gets an explicit ``move_to_cpu`` eviction — and parked on a wait stack to
be re-inserted as memory frees up. ``all_gather`` and ``compute`` tasks
are appended per layer on demand.

Phase 2 advances each ``all_gather`` to the earliest trigger that does not
cause an out-of-memory condition, maximizing its overlap with preceding
computation. A gather can never advance before the movement interval that
makes its layer's pages resident.

Every page's GPU presence is tracked as explicit residency intervals, so
the emitted schedule is *executable*: the static schedule verifier
(:mod:`repro.analysis.verifier`) replays it against the same memory model
and proves that every gather finds its pages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OutOfMemoryError, SchedulingError
from repro.scheduler.memory_model import MemoryModel
from repro.scheduler.pages import LayerPages
from repro.scheduler.tasks import Operation, Schedule, ScheduledTask
from repro.tracer.tracer import IterationTrace


@dataclass(frozen=True)
class _PageRef:
    layer_index: int
    page_id: int
    nbytes: int


class LifetimeScheduler:
    """Runs Algorithm 1 for one data-parallel rank."""

    def __init__(
        self,
        trace: IterationTrace,
        layer_pages: list[LayerPages],
        memory: MemoryModel,
    ):
        if len(layer_pages) != trace.num_layers:
            raise SchedulingError("layer page table does not match the trace")
        self._trace = trace
        self._pages = layer_pages
        self._memory = memory
        # Natural residency horizon of a layer's pages: its backward op.
        self._residency_end = [layer.bwd_id for layer in trace.layers]
        # GPU-presence intervals per (layer, page): list of [start, end].
        self._intervals: dict[tuple[int, int], list[list[int]]] = {}
        # Pages currently planned to be on the GPU (revocation must not
        # "free" the same page twice).
        self._planned_on_gpu: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def schedule(self) -> Schedule:
        plan = self._phase_one()
        self._phase_two(plan)
        return plan

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def _compute_ops(self) -> list[tuple[int, int]]:
        """(op_id, layer_index) for forward then backward computations."""
        ops = [(layer.fwd_id, layer.layer_index) for layer in self._trace.layers]
        ops += [
            (layer.bwd_id, layer.layer_index)
            for layer in reversed(self._trace.layers)
        ]
        return ops

    def _phase_one(self) -> Schedule:
        plan = Schedule()
        wait_stack: list[_PageRef] = []
        memory = self._memory

        # Lines 3-5: optimistically move every page at trigger 0.
        for table in self._pages:
            for page_id in range(table.num_pages):
                ref = _PageRef(table.layer_index, page_id, table.page_nbytes(page_id))
                self._add_move(plan, ref, trigger=0)

        # Lines 6-15, extended over forward and backward computations.
        for op_id, layer_index in self._compute_ops():
            table = self._pages[layer_index]
            gathered = table.gathered_bytes

            # A layer cannot be gathered while its own pages are parked:
            # force their movement at this trigger (the gather reads them).
            for ref in [r for r in wait_stack if r.layer_index == layer_index]:
                wait_stack.remove(ref)
                self._add_move(plan, ref, trigger=op_id)

            # Lines 7-9: revoke the most recent movements until the
            # layer's gathered working set fits at this op.
            while memory.available_at(op_id) < gathered:
                ref = self._revoke_last_movement(
                    plan, protect_layer=layer_index, current_op=op_id
                )
                if ref is None:
                    raise OutOfMemoryError(
                        device="gpu",
                        requested_bytes=gathered,
                        available_bytes=int(memory.available_at(op_id)),
                    )
                wait_stack.append(ref)

            # Lines 10-12: gather and compute.
            plan.append(
                ScheduledTask(
                    operation=Operation.ALL_GATHER,
                    layer_index=layer_index,
                    trigger_id=op_id,
                    nbytes=gathered,
                    op_id=op_id,
                )
            )
            memory.add_resident(gathered, op_id, op_id)
            plan.append(
                ScheduledTask(
                    operation=Operation.COMPUTE,
                    layer_index=layer_index,
                    trigger_id=op_id,
                    op_id=op_id,
                )
            )

            # Lines 13-15: reschedule parked pages while memory allows.
            while wait_stack:
                ref = wait_stack[-1]
                end = self._residency_end[ref.layer_index]
                if end < op_id:
                    # Its layer's backward already passed; the page is no
                    # longer needed on GPU this iteration.
                    wait_stack.pop()
                    continue
                if memory.min_available(op_id, end) <= ref.nbytes:
                    break
                wait_stack.pop()
                self._add_move(plan, ref, trigger=op_id)

        return plan

    def _add_move(self, plan: Schedule, ref: _PageRef, trigger: int) -> None:
        end = self._residency_end[ref.layer_index]
        if trigger > end:
            raise SchedulingError(
                f"move of layer {ref.layer_index} page {ref.page_id} scheduled "
                f"after its residency window"
            )
        plan.append(
            ScheduledTask(
                operation=Operation.MOVE_TO_GPU,
                layer_index=ref.layer_index,
                page_id=ref.page_id,
                trigger_id=trigger,
                nbytes=ref.nbytes,
            )
        )
        self._memory.add_resident(ref.nbytes, trigger, end)
        self._intervals.setdefault((ref.layer_index, ref.page_id), []).append(
            [trigger, end]
        )
        self._planned_on_gpu.add((ref.layer_index, ref.page_id))

    def _revoke_last_movement(
        self, plan: Schedule, protect_layer: int, current_op: int
    ) -> _PageRef | None:
        """Free the memory of the most recently planned movement.

        A move with trigger >= ``current_op`` has not executed yet: it is
        deleted outright. A move that already executed (trigger <
        current_op) but whose page is still needed later gets an explicit
        ``move_to_cpu`` eviction at ``current_op`` — the page served its
        earlier gathers and will be re-staged from the wait stack before
        its next use. Pages of ``protect_layer`` and pages whose backward
        already passed are skipped.
        """
        for index in range(len(plan.tasks) - 1, -1, -1):
            task = plan.tasks[index]
            if task.operation != Operation.MOVE_TO_GPU:
                continue
            if task.layer_index == protect_layer:
                continue
            end = self._residency_end[task.layer_index]
            if end <= current_op:
                continue
            key = (task.layer_index, task.page_id)
            if key not in self._planned_on_gpu:
                continue  # already revoked via a later move of this page
            ref = _PageRef(task.layer_index, task.page_id, task.nbytes)
            if task.trigger_id >= current_op:
                # Not yet executed: remove the plan entry entirely.
                del plan.tasks[index]
                self._memory.remove_resident(task.nbytes, task.trigger_id, end)
                self._pop_interval(key, task.trigger_id)
                self._planned_on_gpu.discard(key)
                return ref
            # Already resident: evict from current_op onward.
            plan.append(
                ScheduledTask(
                    operation=Operation.MOVE_TO_CPU,
                    layer_index=task.layer_index,
                    page_id=task.page_id,
                    trigger_id=current_op,
                    nbytes=task.nbytes,
                )
            )
            self._memory.remove_resident(task.nbytes, current_op, end)
            self._truncate_interval(key, task.trigger_id, current_op - 1)
            self._planned_on_gpu.discard(key)
            return ref
        return None

    def _pop_interval(self, key: tuple[int, int], start: int) -> None:
        intervals = self._intervals.get(key, [])
        for i in range(len(intervals) - 1, -1, -1):
            if intervals[i][0] == start:
                del intervals[i]
                return
        raise SchedulingError(f"no residency interval starting at {start} for {key}")

    def _truncate_interval(self, key: tuple[int, int], start: int, new_end: int) -> None:
        for interval in self._intervals.get(key, []):
            if interval[0] == start:
                interval[1] = new_end
                return
        raise SchedulingError(f"no residency interval starting at {start} for {key}")

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------
    def _presence_start(self, layer_index: int, op_id: int) -> int:
        """Start of the residency interval covering ``op_id`` for the
        slowest page of ``layer_index`` (the gather's readiness bound)."""
        latest_start = 0
        for page_id in range(self._pages[layer_index].num_pages):
            intervals = self._intervals.get((layer_index, page_id), [])
            covering = [iv for iv in intervals if iv[0] <= op_id <= iv[1]]
            if not covering:
                raise SchedulingError(
                    f"layer {layer_index} page {page_id} not resident at "
                    f"op {op_id} — the schedule is invalid"
                )
            latest_start = max(latest_start, covering[0][0])
        return latest_start

    def _phase_two(self, plan: Schedule) -> None:
        """Advance all-gathers to the earliest OOM-free trigger
        (lines 18-21)."""
        for index, task in enumerate(plan.tasks):
            if task.operation != Operation.ALL_GATHER:
                continue
            deadline = task.op_id
            earliest_ready = self._presence_start(task.layer_index, deadline)
            if deadline == 0:
                continue
            # The gathered buffer already occupies [deadline, deadline];
            # advancing the trigger extends it over [t, deadline - 1].
            best = self._memory.earliest_feasible(task.nbytes, deadline - 1, deadline - 1)
            if best is None:
                continue
            # Never delay past the original trigger (Phase 2 only
            # advances); the layer's own pages also gate the gather.
            best = min(max(best, earliest_ready), task.trigger_id)
            if best < task.trigger_id:
                self._memory.add_resident(task.nbytes, best, task.trigger_id - 1)
                plan.tasks[index] = ScheduledTask(
                    operation=Operation.ALL_GATHER,
                    layer_index=task.layer_index,
                    trigger_id=best,
                    nbytes=task.nbytes,
                    op_id=task.op_id,
                )
