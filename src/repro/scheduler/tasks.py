"""Schedule task structures: ``{operation, page, trigger_id}``.

Algorithm 1's output is "S: List of tasks, each is {operation, page,
trigger id}". The trigger id is a logical operation index: a task with
trigger ``t`` is released once the computation with logical ID ``t - 1``
has completed (``t = 0`` releases at iteration start).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import SchedulingError


class Operation(enum.Enum):
    """Operations the Unified Scheduler coordinates."""

    MOVE_TO_GPU = "move_to_gpu"    # Allocator: page CPU -> GPU over PCIe
    MOVE_TO_CPU = "move_to_cpu"    # Allocator: page GPU -> CPU over PCIe
    ALL_GATHER = "all_gather"      # Communicator: assemble sharded params
    REDUCE_SCATTER = "reduce_scatter"  # Communicator: shard gradients
    COMPUTE = "compute"            # Executor: layer forward/backward
    UPDATE_CPU = "update_cpu"      # Executor: optimizer step on CPU
    UPDATE_GPU = "update_gpu"      # Executor: optimizer step on GPU (cache hit)
    SSD_READ = "ssd_read"          # Allocator: optimizer states SSD -> CPU
    SSD_WRITE = "ssd_write"        # Allocator: optimizer states CPU -> SSD


#: Operations that move pages and can be popped back in Phase 1.
MOVEMENT_OPS = frozenset({Operation.MOVE_TO_GPU, Operation.MOVE_TO_CPU})


def index_by_trigger(
    tasks: Iterable["ScheduledTask"],
    exclude: frozenset = frozenset(),
) -> dict[int, list["ScheduledTask"]]:
    """Group tasks by their release trigger, preserving schedule order.

    The static schedule verifier's symbolic replay walks this view.
    ``exclude`` drops operations the caller handles separately (the
    verifier releases everything except COMPUTE by trigger).
    """
    grouped: dict[int, list[ScheduledTask]] = defaultdict(list)
    for task in tasks:
        if task.operation in exclude:
            continue
        grouped[task.trigger_id].append(task)
    return dict(grouped)


@dataclass(frozen=True)
class ScheduledTask:
    """One entry of the schedule.

    Attributes:
        operation: what to do.
        layer_index: the owning layer.
        page_id: logical page within the layer's shard (-1 for whole-layer
            tasks such as compute and all_gather groups).
        trigger_id: logical op index at which the task is released.
        nbytes: payload size for movement/communication tasks.
        op_id: for COMPUTE/UPDATE tasks, the logical op they execute.
    """

    operation: Operation
    layer_index: int
    trigger_id: int
    page_id: int = -1
    nbytes: int = 0
    op_id: int = -1

    def __post_init__(self) -> None:
        if self.trigger_id < 0:
            raise SchedulingError(f"negative trigger_id on {self.operation}")
        if self.nbytes < 0:
            raise SchedulingError(f"negative nbytes on {self.operation}")


@dataclass
class Schedule:
    """Ordered task list produced by the lifetime scheduler."""

    tasks: list[ScheduledTask] = field(default_factory=list)

    def append(self, task: ScheduledTask) -> None:
        self.tasks.append(task)

    def extend(self, tasks: list[ScheduledTask]) -> None:
        self.tasks.extend(tasks)

    def of(self, operation: Operation) -> list[ScheduledTask]:
        return [t for t in self.tasks if t.operation == operation]

    def pop_last_movement(self) -> ScheduledTask:
        """Phase 1, lines 7-9: remove the most recent movement task."""
        for index in range(len(self.tasks) - 1, -1, -1):
            if self.tasks[index].operation in MOVEMENT_OPS:
                return self.tasks.pop(index)
        raise SchedulingError("no movement task left to pop")

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)
