"""The Page abstraction (Figure 3 of the paper).

A page is the minimum unit of memory operations for heterogeneous storage.
It records where it currently lives (``device_index`` following the paper's
``{0: GPU, 1: CPU, 2: SSD}`` map), how many of its bytes are free, and which
tensors occupy it. As in the paper, a page holds *at most two tensors* at a
time — the property that keeps management simple while still letting a
large tensor's tail share a page with its neighbour.

The page size defaults to 4 MiB, the paper's "minimum Page size that can
fully utilize the PCIe bandwidth".
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from repro.errors import AllocationError, PageStateError
from repro.hardware.device import DeviceKind
from repro.units import MiB

DEFAULT_PAGE_BYTES = 4 * MiB

MAX_TENSORS_PER_PAGE = 2

_page_ids = itertools.count()


class PageState(enum.Enum):
    """Lifecycle of a page within a device pool."""

    FREE = "free"          # in a pool's free list, no tensor data
    RESIDENT = "resident"  # holds live tensor bytes on some device
    MOVING = "moving"      # asynchronous move in flight


@dataclass
class _Slot:
    """One tensor's occupancy within a page."""

    tensor_id: int
    offset: int
    nbytes: int

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


class Page:
    """One fixed-size unit of hierarchical memory.

    The physical bytes live in a storage handle owned by a
    :class:`~repro.memory.pool.DevicePool`; moving a page swaps its storage
    while the page object (and therefore every tensor referencing it) stays
    stable, exactly like the paper's ``move(target_device_index)``
    (:meth:`~repro.memory.allocator.PageAllocator.move_pages` here).
    """

    def __init__(self, total_bytes: int = DEFAULT_PAGE_BYTES):
        if total_bytes <= 0:
            raise AllocationError("page size must be positive")
        self.page_id: int = next(_page_ids)
        self.total_bytes: int = total_bytes
        self.state: PageState = PageState.FREE
        #: Tenant the page is charged to under a fleet quota (set by the
        #: PageAllocator that acquired it; ``None`` outside multi-tenancy).
        self.owner: str | None = None
        self._slots: list[_Slot] = []
        self._storage = None  # set by DevicePool.acquire()

    # ------------------------------------------------------------------
    # Occupancy bookkeeping
    # ------------------------------------------------------------------
    @property
    def tensor_ids(self) -> tuple[int, ...]:
        return tuple(slot.tensor_id for slot in self._slots)

    @property
    def used_bytes(self) -> int:
        return sum(slot.nbytes for slot in self._slots)

    @property
    def available_bytes(self) -> int:
        """Bytes allocatable at the tail of the page.

        Freed space before a live slot is not reused (pages never compact
        in place); it returns when the page empties.
        """
        if not self._slots:
            return self.total_bytes
        return self.total_bytes - self._slots[-1].end

    def allocate(self, required_bytes: int, tensor_id: int) -> int:
        """Reserve ``required_bytes`` at the page tail for ``tensor_id``.

        Returns the byte offset of the reservation within the page.
        """
        if required_bytes <= 0:
            raise AllocationError("allocation size must be positive")
        if len(self._slots) >= MAX_TENSORS_PER_PAGE:
            raise AllocationError(
                f"page {self.page_id} already holds {MAX_TENSORS_PER_PAGE} tensors"
            )
        if any(slot.tensor_id == tensor_id for slot in self._slots):
            raise AllocationError(
                f"tensor {tensor_id} already occupies page {self.page_id}"
            )
        if required_bytes > self.available_bytes:
            raise AllocationError(
                f"page {self.page_id} has {self.available_bytes} free bytes; "
                f"cannot allocate {required_bytes}"
            )
        offset = self._slots[-1].end if self._slots else 0
        self._slots.append(_Slot(tensor_id=tensor_id, offset=offset, nbytes=required_bytes))
        return offset

    def release(self, tensor_id: int) -> None:
        """Free the space occupied by ``tensor_id`` in this page."""
        for i, slot in enumerate(self._slots):
            if slot.tensor_id == tensor_id:
                del self._slots[i]
                return
        raise AllocationError(
            f"tensor {tensor_id} does not occupy page {self.page_id}"
        )

    def slot_of(self, tensor_id: int) -> tuple[int, int]:
        """(offset, nbytes) of ``tensor_id`` within this page."""
        for slot in self._slots:
            if slot.tensor_id == tensor_id:
                return slot.offset, slot.nbytes
        raise AllocationError(
            f"tensor {tensor_id} does not occupy page {self.page_id}"
        )

    @property
    def is_empty(self) -> bool:
        return not self._slots

    # ------------------------------------------------------------------
    # Storage / placement
    # ------------------------------------------------------------------
    @property
    def storage(self):
        if self._storage is None:
            raise PageStateError(f"page {self.page_id} has no storage attached")
        return self._storage

    @property
    def has_storage(self) -> bool:
        return self._storage is not None

    @property
    def device_index(self) -> int:
        """Paper convention: 0=GPU, 1=CPU, 2=SSD; -1 when unattached."""
        if self._storage is None:
            return -1
        return int(self._storage.pool.device_kind)

    @property
    def device_kind(self) -> DeviceKind:
        return self.storage.pool.device_kind

    @property
    def pool(self):
        return self.storage.pool

    def _attach(self, storage) -> None:
        if self._storage is not None:
            raise PageStateError(f"page {self.page_id} already has storage")
        self._storage = storage
        self.state = PageState.RESIDENT

    def _detach(self):
        if self._storage is None:
            raise PageStateError(f"page {self.page_id} has no storage to detach")
        storage, self._storage = self._storage, None
        self.state = PageState.FREE
        return storage

    # ------------------------------------------------------------------
    # Data access (delegates to storage)
    # ------------------------------------------------------------------
    def read(self, offset: int, nbytes: int) -> bytes:
        return self.storage.read(offset, nbytes)

    def write(self, offset: int, data: bytes) -> None:
        self.storage.write(offset, data)

    def __repr__(self) -> str:
        where = self.device_kind.name if self.has_storage else "detached"
        return (
            f"Page(id={self.page_id}, {where}, used={self.used_bytes}/"
            f"{self.total_bytes}, tensors={list(self.tensor_ids)})"
        )
