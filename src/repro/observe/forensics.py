"""Memory forensics: explain an OOM, don't just raise it.

A :class:`ForensicRecorder` rides along with a
:class:`~repro.memory.allocator.PageAllocator`: it samples per-tier
page-residency waterlines at step boundaries, and the engine's demand
path deposits *context* — the currently pinned tensors. When any tier pool
raises :class:`~repro.errors.OutOfMemoryError`, the recorder captures a
:class:`ForensicDump` — resident pages and tensors per tier, the pinned
set, the recent waterline history — and attaches it to the raised error
as ``exc.forensics``, so the failure explains itself all the way up the
stack.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ResidencySample:
    """Per-tier waterline at one step boundary."""

    step: int
    tiers: dict

    def to_dict(self) -> dict:
        return {"step": self.step, "tiers": {k: dict(v) for k, v in self.tiers.items()}}


@dataclass
class ForensicDump:
    """Everything known about the memory system at the failure point."""

    device: str
    requested_bytes: int
    available_bytes: int
    #: Per tier: pages_in_use / num_pages / used_bytes / free_bytes.
    resident_pages: dict = field(default_factory=dict)
    #: Per tier: the largest resident tensors, ``{tensor_id, nbytes}``.
    resident_tensors: dict = field(default_factory=dict)
    #: Tensors the failing operation could not evict (names or ids).
    pinned: list = field(default_factory=list)
    #: Recent per-tier waterline samples, oldest first.
    waterline_history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "requested_bytes": self.requested_bytes,
            "available_bytes": self.available_bytes,
            "resident_pages": {k: dict(v) for k, v in self.resident_pages.items()},
            "resident_tensors": {
                k: [dict(t) for t in v] for k, v in self.resident_tensors.items()
            },
            "pinned": list(self.pinned),
            "waterline_history": list(self.waterline_history),
        }

    def summary(self) -> str:
        """A few human-readable lines for logs and error messages."""
        lines = [f"OOM on {self.device}: requested {self.requested_bytes} B, "
                 f"{self.available_bytes} B available"]
        for tier, stats in sorted(self.resident_pages.items()):
            lines.append(
                f"  {tier}: {stats.get('pages_in_use', 0)}/"
                f"{stats.get('num_pages', 0)} pages resident"
            )
        if self.pinned:
            lines.append(f"  pinned: {', '.join(str(p) for p in self.pinned)}")
        return "\n".join(lines)


class ForensicRecorder:
    """Waterline sampler + OOM dump capturer for one allocator."""

    def __init__(self, capacity: int = 512, top_tensors: int = 8):
        self._timeline: deque[ResidencySample] = deque(maxlen=capacity)
        self._pinned: list = []
        self.top_tensors = top_tensors
        #: The most recent dump captured (also attached to the error).
        self.last_dump: ForensicDump | None = None

    # ------------------------------------------------------------------
    # Waterline timeline
    # ------------------------------------------------------------------
    def sample(self, step: int, memory_report: dict) -> None:
        """Record one per-tier residency sample (a ``memory_report()``)."""
        self._timeline.append(ResidencySample(step=step, tiers=memory_report))

    # ------------------------------------------------------------------
    # Failure context (set by whoever is driving the allocator)
    # ------------------------------------------------------------------
    def set_context(self, *, pinned) -> None:
        self._pinned = list(pinned)

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def capture(self, allocator, exc) -> ForensicDump:
        """Build the dump from the allocator's state at the failure point."""
        resident_pages: dict = {}
        resident_tensors: dict = {}
        for device, pool in allocator.pools.items():
            tier = device.name.lower()
            resident_pages[tier] = {
                "pages_in_use": pool.pages_in_use,
                "num_pages": pool.num_pages,
                "used_bytes": pool.used_bytes,
                "free_bytes": pool.free_bytes,
                "peak_pages": pool.peak_in_use,
            }
            resident_tensors[tier] = []
        for tensor in allocator.tensors:
            device = tensor.device_kind
            tier = device.name.lower() if device is not None else "split"
            resident_tensors.setdefault(tier, []).append(
                {"tensor_id": tensor.tensor_id, "nbytes": tensor.nbytes}
            )
        for tier, tensors in resident_tensors.items():
            tensors.sort(key=lambda t: (-t["nbytes"], t["tensor_id"]))
            del tensors[self.top_tensors:]
        dump = ForensicDump(
            device=getattr(exc, "device", "?"),
            requested_bytes=getattr(exc, "requested_bytes", 0),
            available_bytes=getattr(exc, "available_bytes", 0),
            resident_pages=resident_pages,
            resident_tensors=resident_tensors,
            pinned=list(self._pinned),
            waterline_history=[s.to_dict() for s in list(self._timeline)[-16:]],
        )
        self.last_dump = dump
        return dump

    def attach(self, exc, allocator) -> None:
        """Attach a dump to ``exc`` (idempotent: first capture wins)."""
        if getattr(exc, "forensics", None) is not None:
            return
        exc.forensics = self.capture(allocator, exc)
