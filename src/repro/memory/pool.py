"""Per-device page pools with pluggable physical backends.

Angel-PTM's Allocator "pre-allocate[s] space from the hierarchical memory of
the system, including GPU memory, CPU pinned memory, and SSD memory" and
divides it into fixed-size pages (Section 5). A :class:`DevicePool` does the
same: capacity is reserved at construction as **one contiguous arena**,
pages are acquired from and returned to sorted free runs, and the backend
decides where the bytes physically live:

- :class:`~repro.memory.arena.ArenaPoolBackend` — an anonymous ``mmap``
  arena (``backend="ram"``, the simulated "GPU" and the real CPU tier),
- :class:`~repro.memory.arena.FilePoolBackend` — one preallocated arena
  file moved by positioned reads and writes (the SSD tier, exercising
  genuine storage I/O),
- :class:`NullPoolBackend` — capacity accounting only, for pure
  discrete-event simulation at paper scale.

Backends speak the buffer-protocol storage API
(:class:`repro.protocols.PoolBackend`): ``readinto``/``write_from`` move
bytes through caller-supplied buffers, ``preadv``/``pwritev`` move a list
of ``(slot, offset, buf)`` segments as one request, RAM-like arenas add
zero-copy ``view`` windows.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import AllocationError, OutOfMemoryError, PageStateError
from repro.hardware.device import DeviceKind
from repro.memory.arena import ArenaPoolBackend, FilePoolBackend, SegmentLoopIO
from repro.memory.page import DEFAULT_PAGE_BYTES, Page
from repro.protocols import PoolBackend

__all__ = [
    "DevicePool",
    "FilePoolBackend",
    "NullPoolBackend",
]


class _Storage:
    """Handle to one page-sized region owned by a pool."""

    __slots__ = ("pool", "index", "nbytes")

    def __init__(self, pool: "DevicePool", index: int, nbytes: int):
        self.pool = pool
        self.index = index
        self.nbytes = nbytes

    # ------------------------------------------------------------------
    # Bytes convenience (tests, small control-plane reads)
    # ------------------------------------------------------------------
    def read(self, offset: int, nbytes: int) -> bytes:
        buf = bytearray(nbytes)
        self._check_range(offset, nbytes)
        self.pool.preadv([(self.index, offset, buf)])
        return bytes(buf)

    def write(self, offset: int, data: bytes) -> None:
        self._check_range(offset, len(data))
        self.pool.pwritev([(self.index, offset, data)])

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise AllocationError(
                f"access [{offset}, {offset + nbytes}) outside page of {self.nbytes} bytes"
            )


class NullPoolBackend(SegmentLoopIO):
    """Capacity accounting only; reads return zeros, writes are dropped.

    Lets the discrete-event experiments run the same allocator code at
    175B/10T-parameter scale without materializing terabytes.
    """

    def __init__(self, num_pages: int, page_bytes: int):
        self.num_pages = num_pages
        self.page_bytes = page_bytes

    def readinto(self, index: int, offset: int, buf) -> int:
        del index, offset
        target = memoryview(buf).cast("B")
        target[:] = bytes(len(target))
        return len(target)

    def write_from(self, index: int, offset: int, buf) -> int:
        del index, offset
        return memoryview(buf).nbytes

    def close(self) -> None:
        pass


def _checked_backend(backend):
    """Reject a custom backend or wrapper (outside input) that lacks the
    buffer-protocol API where it is installed, not inside a page copy."""
    if isinstance(backend, PoolBackend):
        return backend
    raise AllocationError(
        f"{type(backend).__name__} does not implement the PoolBackend "
        "protocol (readinto/write_from/preadv/pwritev/close)"
    )


def _build_backend(backend, num_pages: int, page_bytes: int, file_path):
    if not isinstance(backend, str):
        return _checked_backend(backend)
    if backend == "ram":
        return ArenaPoolBackend(num_pages, page_bytes, shared=False)
    if backend == "file":
        return FilePoolBackend(num_pages, page_bytes, path=file_path)
    if backend == "null":
        return NullPoolBackend(num_pages, page_bytes)
    raise AllocationError(f"unknown pool backend {backend!r}")


class DevicePool:
    """Pre-allocated page pool for one memory tier."""

    def __init__(
        self,
        device_kind: DeviceKind,
        capacity_bytes: int,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        backend: str = "ram",
        file_path: str | None = None,
        name: str | None = None,
        telemetry=None,
        owner: str | None = None,
    ):
        if capacity_bytes < page_bytes:
            raise AllocationError("pool capacity smaller than one page")
        self.device_kind = device_kind
        #: Tenant this pool belongs to under multi-tenancy; threaded into
        #: the pool name so OOM errors attribute the starved tier.
        self.owner = owner
        # Physical-I/O accounting: one counter pair per tier, fetched once
        # so the per-access cost is a None check (repro.telemetry).
        tier = device_kind.name.lower()
        if telemetry is not None and getattr(telemetry, "enabled", False):
            self._read_bytes = telemetry.counter("io.read_bytes", tier=tier)
            self._write_bytes = telemetry.counter("io.write_bytes", tier=tier)
        else:
            self._read_bytes = None
            self._write_bytes = None
        self.page_bytes = page_bytes
        self.num_pages = capacity_bytes // page_bytes
        self.capacity_bytes = self.num_pages * page_bytes
        if name is None:
            name = f"{device_kind.name.lower()}-pool"
            if owner is not None:
                name = f"{owner}/{name}"
        self.name = name
        self._backend = _build_backend(backend, self.num_pages, page_bytes, file_path)
        # Free arena slots as sorted disjoint runs [start, stop), kept
        # coalesced: acquires hand out the lowest slots ascending, so a
        # tensor's pages form contiguous runs that move_pages turns into
        # single slice copies, and "is slot i free" is one bisect.
        self._free_starts: list[int] = [0]
        self._free_stops: list[int] = [self.num_pages]
        #: Free slots right now; eviction asks this instead of provoking
        #: an OutOfMemoryError (``free_bytes`` derives from it).
        self.free_pages = self.num_pages
        self.peak_in_use = 0
        #: Called with the OutOfMemoryError about to be raised; the page
        #: allocator points this at its ForensicRecorder so every OOM —
        #: whichever path triggered it — carries a forensic dump.
        self.oom_observer = None

    def wrap_backend(self, wrapper) -> None:
        """Interpose on physical I/O: ``wrapper(inner) -> backend``.

        Used by ``repro.resilience`` to inject faults into a tier without
        the pool, pages or tensors knowing; the wrapper must expose the
        backend protocol (:class:`repro.protocols.PoolBackend`) and is
        rejected with :class:`~repro.errors.AllocationError` otherwise.
        A wrapper that does not re-export ``view`` forces every copy
        through its ``readinto``/``write_from`` — exactly what fault
        injection wants.
        """
        self._backend = _checked_backend(wrapper(self._backend))

    # ------------------------------------------------------------------
    # Vectored I/O: one request per call, ``[(slot, offset, buf), ...]``
    # (range-checked by the caller, see repro.memory.tensor.gather)
    # ------------------------------------------------------------------
    def preadv(self, requests) -> None:
        if self._read_bytes is not None:
            self._read_bytes.inc(sum(memoryview(b).nbytes for _, _, b in requests))
        self._backend.preadv(requests)

    def pwritev(self, requests) -> None:
        if self._write_bytes is not None:
            self._write_bytes.inc(sum(memoryview(b).nbytes for _, _, b in requests))
        self._backend.pwritev(requests)

    # ------------------------------------------------------------------
    # Storage lifecycle (used by page moves and by acquire/release below)
    # ------------------------------------------------------------------
    def _oom(self, requested_bytes: int) -> OutOfMemoryError:
        exc = OutOfMemoryError(
            device=self.name,
            requested_bytes=requested_bytes,
            available_bytes=self.free_bytes,
        )
        if self.oom_observer is not None:
            self.oom_observer(exc)
        return exc

    def acquire_storage(self, nbytes: int) -> _Storage:
        if nbytes > self.page_bytes:
            raise AllocationError(
                f"{self.name}: page of {nbytes} bytes exceeds pool page size"
            )
        return self.acquire_storage_run(1)[0]

    def acquire_storage_run(self, count: int) -> list[_Storage]:
        """Acquire ``count`` pages at the lowest free arena slots.

        All-or-nothing: raises :class:`~repro.errors.OutOfMemoryError`
        without taking anything when fewer than ``count`` pages are free.
        Handing out the smallest indices keeps freed holes refilled
        first, so long-lived pools stay contiguous and a MoveGroup's
        destination slots coalesce into few runs.
        """
        if count <= 0:
            return []
        if self.free_pages < count:
            raise self._oom(count * self.page_bytes)
        starts, stops = self._free_starts, self._free_stops
        taken: list[int] = []
        spent = 0  # leading runs consumed whole
        while (want := count - len(taken)) > 0:
            start, stop = starts[spent], stops[spent]
            if stop - start <= want:
                spent += 1
            else:
                stop = starts[spent] = start + want
            taken.extend(range(start, stop))
        del starts[:spent], stops[:spent]
        self.free_pages -= count
        self.peak_in_use = max(self.peak_in_use, self.pages_in_use)
        page_bytes = self.page_bytes
        return [_Storage(self, index, page_bytes) for index in taken]

    def release_storage(self, storage: _Storage) -> None:
        if storage.pool is not self:
            raise PageStateError("storage released to the wrong pool")
        index = storage.index
        starts, stops = self._free_starts, self._free_stops
        at = bisect_right(starts, index)  # runs before ``at`` start <= index
        if at and index < stops[at - 1]:
            raise PageStateError(f"double free of page index {index}")
        joins_left = at > 0 and stops[at - 1] == index
        joins_right = at < len(starts) and starts[at] == index + 1
        if joins_left and joins_right:
            stops[at - 1] = stops[at]
            del starts[at], stops[at]
        elif joins_left:
            stops[at - 1] = index + 1
        elif joins_right:
            starts[at] = index
        else:
            starts.insert(at, index)
            stops.insert(at, index + 1)
        self.free_pages += 1

    # ------------------------------------------------------------------
    # Page lifecycle
    # ------------------------------------------------------------------
    def acquire(self) -> Page:
        """Take a fresh page resident in this pool."""
        page = Page(total_bytes=self.page_bytes)
        page._attach(self.acquire_storage(self.page_bytes))
        return page

    def release(self, page: Page) -> None:
        """Return an *empty* page's storage to the free list."""
        if not page.is_empty:
            raise PageStateError(
                f"page {page.page_id} still holds tensors {list(page.tensor_ids)}"
            )
        self.release_storage(page._detach())

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def pages_in_use(self) -> int:
        return self.num_pages - self.free_pages

    @property
    def used_bytes(self) -> int:
        return self.pages_in_use * self.page_bytes

    @property
    def free_bytes(self) -> int:
        return self.free_pages * self.page_bytes

    def close(self) -> None:
        self._backend.close()

    def __enter__(self) -> "DevicePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DevicePool({self.name}, {self.pages_in_use}/{self.num_pages} pages, "
            f"page={self.page_bytes}B)"
        )
