"""Fragmentation accounting shared by all allocator implementations.

Section 3.2 of the paper attributes DeepSpeed's and PatrickStar's capacity
losses to memory fragments created by coarse management. These metrics make
that claim measurable for any allocator that can replay an allocation
trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """One step of an allocation trace: allocate or free a request id."""

    op: str  # "alloc" | "free"
    req_id: int
    nbytes: int = 0

    @staticmethod
    def alloc(req_id: int, nbytes: int) -> "TraceEvent":
        return TraceEvent("alloc", req_id, nbytes)

    @staticmethod
    def free(req_id: int) -> "TraceEvent":
        return TraceEvent("free", req_id)


@dataclass
class FragmentationStats:
    """Outcome of replaying a trace through an allocator.

    Attributes:
        peak_reserved_bytes: most arena bytes ever claimed from the device.
        peak_live_bytes: most bytes simultaneously requested by the trace
            (the allocator-independent lower bound).
        failed_at: index of the trace event where allocation first failed,
            or None if the whole trace succeeded.
    """

    capacity_bytes: int
    peak_reserved_bytes: int = 0
    peak_live_bytes: int = 0
    failed_at: int | None = None
    events_replayed: int = 0
    _live_bytes: int = field(default=0, repr=False)

    def on_alloc(self, nbytes: int, reserved_bytes: int) -> None:
        self._live_bytes += nbytes
        self.peak_live_bytes = max(self.peak_live_bytes, self._live_bytes)
        self.peak_reserved_bytes = max(self.peak_reserved_bytes, reserved_bytes)
        self.events_replayed += 1

    def on_free(self, nbytes: int) -> None:
        self._live_bytes -= nbytes
        self.events_replayed += 1

    @property
    def overhead_ratio(self) -> float:
        """peak reserved / peak live — 1.0 is a perfect allocator."""
        if self.peak_live_bytes == 0:
            return 1.0
        return self.peak_reserved_bytes / self.peak_live_bytes


def replay(allocator, trace: list[TraceEvent]) -> FragmentationStats:
    """Run ``trace`` through ``allocator`` and collect fragmentation stats.

    ``allocator`` must expose ``alloc(req_id, nbytes)``, ``free(req_id)``
    and a ``reserved_bytes`` property. The replay stops at the first failed
    allocation and records its index — the max-model-scale experiments use
    exactly this "first failure" semantics.
    """
    from repro.errors import OutOfMemoryError

    stats = FragmentationStats(capacity_bytes=allocator.capacity_bytes)
    sizes: dict[int, int] = {}
    for index, event in enumerate(trace):
        if event.op == "alloc":
            try:
                allocator.alloc(event.req_id, event.nbytes)
            except OutOfMemoryError:
                stats.failed_at = index
                return stats
            sizes[event.req_id] = event.nbytes
            stats.on_alloc(event.nbytes, allocator.reserved_bytes)
        elif event.op == "free":
            allocator.free(event.req_id)
            stats.on_free(sizes.pop(event.req_id))
        else:
            raise ValueError(f"unknown trace op {event.op!r}")
    return stats
