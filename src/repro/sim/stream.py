"""Serialized execution streams.

A stream models one physical resource that executes work items strictly in
submission order: a GPU compute stream, a per-GPU PCIe H2D/D2H channel, an
NVLink/NCCL channel, a CPU update thread, or an SSD I/O queue. This mirrors
the Executor in Angel-PTM, which "maintains a separate stream for each of
these computational devices" (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError


@dataclass
class Stream:
    """One serialized resource inside a :class:`~repro.sim.engine.Simulator`.

    Attributes:
        name: unique stream name, e.g. ``gpu0.compute`` or ``gpu0.h2d``.
        kind: free-form grouping label used by utilization reports
            (``compute``, ``pcie``, ``nccl``, ``cpu``, ``ssd``).
    """

    name: str
    kind: str = "generic"
    _task_names: list[str] = field(default_factory=list, repr=False)

    def _register(self, task_name: str) -> int:
        """Record a task's position in this stream's FIFO order."""
        if not task_name:
            raise SimulationError("task name must be non-empty")
        self._task_names.append(task_name)
        return len(self._task_names) - 1
