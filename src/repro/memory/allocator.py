"""Page-level allocator spanning the hierarchical memory tiers.

Implements the placement policy of Section 4.1:

- tensors smaller than one page occupy an individual page ("for
  simplicity, considering that they only account for a very small fraction
  of the overall memory usage");
- larger tensors fill whole pages exclusively, and their sub-page *tail*
  may share a page with exactly one other tensor's tail of the same dtype
  on the same tier, preserving the at-most-two-tensors-per-page invariant.

Multi-tenancy (``repro.fleet``) adds owner accounting on top: an allocator
constructed with ``owner=``/``quota=`` labels every page it acquires and
charges it against a shared :class:`PageQuota` ledger, so co-located jobs
see a typed :class:`~repro.errors.QuotaExceededError` at their own quota
boundary instead of silently draining a shared pool.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.errors import AllocationError, QuotaExceededError, TensorStateError
from repro.hardware.device import DeviceKind
from repro.memory.page import Page, PageState
from repro.memory.pool import DevicePool, NullPoolBackend
from repro.memory.tensor import PagedTensor


@dataclass
class MoveReport:
    """What one :meth:`PageAllocator.move_pages` call physically did."""

    pages_moved: int = 0
    bytes_moved: int = 0
    #: Physical gather/scatter copies issued — O(contiguous runs), not
    #: O(pages), when arena slots line up.
    copy_calls: int = 0

    def merge(self, other: "MoveReport") -> None:
        self.pages_moved += other.pages_moved
        self.bytes_moved += other.bytes_moved
        self.copy_calls += other.copy_calls


#: Sort key: a page's arena slot in its current pool.
_arena_slot = attrgetter("_storage.index")


def _copy_page_run(src_pool, dst_pool, src_start, dst_start, npages):
    """Copy ``npages`` physically-consecutive pages between two arenas.

    One slice copy when both ends expose arena views; a single
    ``readinto``/``write_from`` when one end is view-less (file tiers,
    fault-injection wrappers); a staging buffer only when both are —
    and nothing at all between two capacity-only null backends.
    """
    nbytes = npages * src_pool.page_bytes
    read_counter = src_pool._read_bytes
    if read_counter is not None:
        read_counter.inc(nbytes)
    write_counter = dst_pool._write_bytes
    if write_counter is not None:
        write_counter.inc(nbytes)
    src_backend = src_pool._backend
    dst_backend = dst_pool._backend
    src_view = (
        src_backend.view(src_start, 0, nbytes)
        if hasattr(src_backend, "view") else None
    )
    dst_view = (
        dst_backend.view(dst_start, 0, nbytes)
        if hasattr(dst_backend, "view") else None
    )
    if src_view is not None and dst_view is not None:
        dst_view[:] = src_view
    elif dst_view is not None:
        src_backend.readinto(src_start, 0, dst_view)
    elif src_view is not None:
        dst_backend.write_from(dst_start, 0, src_view)
    elif not (isinstance(src_backend, NullPoolBackend)
              and isinstance(dst_backend, NullPoolBackend)):
        staging = bytearray(nbytes)
        src_backend.readinto(src_start, 0, staging)
        dst_backend.write_from(dst_start, 0, staging)


class PageQuota:
    """Shared per-tenant page ledger for one physical pool (a fleet node).

    Every :class:`PageAllocator` created with ``(owner=, quota=)`` charges
    its page acquisitions here and credits releases, so co-located jobs
    account against one capacity even though each engine keeps private
    :class:`~repro.memory.pool.DevicePool` objects (the PatrickStar-style
    chunk accounting that makes per-tenant quotas enforceable at the
    allocator). ``quotas`` maps tenant name to a per-tenant page cap;
    ``capacity_pages`` optionally caps the sum across tenants. A charge
    that would break either cap raises
    :class:`~repro.errors.QuotaExceededError` before any pool is touched.
    """

    def __init__(
        self,
        quotas: dict[str, int] | None = None,
        capacity_pages: int | None = None,
        telemetry=None,
    ):
        self._quotas: dict[str, int] = dict(quotas or {})
        self.capacity_pages = capacity_pages
        self._used: dict[str, int] = {}
        self._lock = threading.Lock()
        if telemetry is None:
            from repro.telemetry.core import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.telemetry = telemetry

    def set_quota(self, owner: str, pages: int) -> None:
        with self._lock:
            self._quotas[owner] = pages

    def quota_of(self, owner: str) -> int | None:
        return self._quotas.get(owner)

    def used(self, owner: str | None = None) -> int:
        with self._lock:
            if owner is None:
                return sum(self._used.values())
            return self._used.get(owner, 0)

    def usage(self) -> dict[str, int]:
        """Per-tenant pages currently charged (a copy)."""
        with self._lock:
            return dict(self._used)

    def headroom(self, owner: str) -> int:
        """Pages ``owner`` may still charge before a quota error."""
        with self._lock:
            room = []
            limit = self._quotas.get(owner)
            if limit is not None:
                room.append(limit - self._used.get(owner, 0))
            if self.capacity_pages is not None:
                room.append(self.capacity_pages - sum(self._used.values()))
            return max(0, min(room)) if room else 2**62

    def charge(self, owner: str, pages: int = 1) -> None:
        with self._lock:
            used = self._used.get(owner, 0)
            limit = self._quotas.get(owner)
            if limit is not None and used + pages > limit:
                self._reject(owner)
                raise QuotaExceededError(owner, pages, limit, used)
            total = sum(self._used.values())
            if (
                self.capacity_pages is not None
                and total + pages > self.capacity_pages
            ):
                self._reject(owner)
                raise QuotaExceededError(
                    owner, pages, self.capacity_pages, total, scope="pool"
                )
            self._used[owner] = used + pages
            self._observe(owner)

    def credit(self, owner: str, pages: int = 1) -> None:
        with self._lock:
            used = self._used.get(owner, 0)
            if pages > used:
                raise AllocationError(
                    f"tenant {owner!r} credited {pages} page(s) "
                    f"but only {used} charged"
                )
            self._used[owner] = used - pages
            self._observe(owner)

    def _observe(self, owner: str) -> None:
        # Called under _lock; the owner-accounting gauge fleet tests read.
        if self.telemetry.enabled:
            self.telemetry.gauge("quota.pages_in_use", tenant=owner).set(
                self._used.get(owner, 0)
            )

    def _reject(self, owner: str) -> None:
        if self.telemetry.enabled:
            self.telemetry.counter("quota.rejections", tenant=owner).inc()


class PageAllocator:
    """Allocates, releases, moves and merges paged tensors across tiers."""

    def __init__(
        self,
        pools: dict[DeviceKind, DevicePool],
        retry_policy=None,
        telemetry=None,
        forensics=None,
        owner: str | None = None,
        quota: PageQuota | None = None,
    ):
        if not pools:
            raise AllocationError("at least one device pool is required")
        page_sizes = {pool.page_bytes for pool in pools.values()}
        if len(page_sizes) != 1:
            raise AllocationError("all pools must share one page size")
        self._pools = dict(pools)
        #: Optional repro.resilience RetryPolicy applied to page moves, the
        #: cross-tier I/O most exposed to transient SSD/file faults.
        self.retry_policy = retry_policy
        if telemetry is None:
            from repro.telemetry.core import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        #: repro.telemetry.Telemetry recording per-(src, dst) page traffic
        #: and bracketing tensor moves with spans (disabled by default).
        self.telemetry = telemetry
        #: Optional repro.observe.forensics.ForensicRecorder: every
        #: OutOfMemoryError raised by any of this allocator's pools gets a
        #: forensic dump (resident pages/tensors per tier, pinned set,
        #: planned tasks, waterline history) attached as ``exc.forensics``.
        self.forensics = forensics
        if forensics is not None:
            for pool in self._pools.values():
                pool.oom_observer = self._on_oom
        #: Tenant every acquired page is labelled with and charged to.
        self.owner = owner
        #: Shared PageQuota ledger (one per fleet node); ``None`` keeps the
        #: single-tenant fast path — no charge/credit on page turnover.
        self.quota = quota
        if quota is not None and owner is None:
            raise AllocationError("a quota ledger requires an owner label")
        # Pages currently charged to the ledger by *this* allocator, so
        # close() can return the whole footprint in one credit.
        self._pages_charged = 0
        self.page_bytes = page_sizes.pop()
        self._tensor_ids = itertools.count()
        self._tensors: dict[int, PagedTensor] = {}
        # Per (tier, dtype), the page with exactly one tail in it, open for
        # sharing: a tail shares only with a tail of its own dtype, so an
        # FP32 state never shares a page with an FP16 working copy.
        self._open_shared: dict[tuple[DeviceKind, np.dtype], Page | None] = {}
        self.bytes_requested = 0

    def pool(self, device: DeviceKind) -> DevicePool:
        try:
            return self._pools[device]
        except KeyError:
            raise AllocationError(f"no pool configured for {device.name}") from None

    @property
    def pools(self) -> dict[DeviceKind, DevicePool]:
        return dict(self._pools)

    @property
    def tensors(self) -> list[PagedTensor]:
        return list(self._tensors.values())

    def _on_oom(self, exc) -> None:
        if self.forensics is not None:
            self.forensics.attach(exc, self)

    def residency_report(self) -> dict[str, dict[str, int]]:
        """Per-tier page residency (the waterline the forensics sample)."""
        return {
            device.name.lower(): {
                "pages_in_use": pool.pages_in_use,
                "used_bytes": pool.used_bytes,
                "free_bytes": pool.free_bytes,
                "peak_pages": pool.peak_in_use,
            }
            for device, pool in self._pools.items()
        }

    # ------------------------------------------------------------------
    # Page turnover (the single choke point for quota charge/credit)
    # ------------------------------------------------------------------
    @property
    def pages_charged(self) -> int:
        """Pages this allocator currently has charged to its quota ledger."""
        return self._pages_charged

    def _acquire_page(self, pool: DevicePool) -> Page:
        if self.quota is not None:
            self.quota.charge(self.owner)
            try:
                page = pool.acquire()
            except Exception:
                self.quota.credit(self.owner)
                raise
            self._pages_charged += 1
        else:
            page = pool.acquire()
        page.owner = self.owner
        return page

    def _retire_page(self, page: Page) -> None:
        """Return an empty page to its pool and credit the quota ledger."""
        self._forget_shared(page)
        page.pool.release(page)
        page.owner = None
        if self.quota is not None:
            self.quota.credit(self.owner)
            self._pages_charged -= 1

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(
        self,
        shape: tuple[int, ...],
        dtype,
        device: DeviceKind = DeviceKind.CPU,
        share_tail: bool = True,
    ) -> PagedTensor:
        """Create a tensor of ``shape``/``dtype`` resident on ``device``."""
        tensor = PagedTensor(next(self._tensor_ids), shape, np.dtype(dtype), allocator=self)
        if tensor.nbytes == 0:
            raise AllocationError("cannot allocate a zero-sized tensor")
        pool = self.pool(device)
        full_pages, tail_bytes = divmod(tensor.nbytes, self.page_bytes)
        if tensor.nbytes < self.page_bytes:
            # Small tensors occupy an individual page (paper policy).
            full_pages, tail_bytes = 0, tensor.nbytes
            share_tail = False
        try:
            for _ in range(full_pages):
                page = self._acquire_page(pool)
                page.allocate(self.page_bytes, tensor.tensor_id)
                tensor.page_list.append(page)
            if tail_bytes:
                tensor.page_list.append(self._place_tail(
                    pool, (device, tensor.dtype), tensor.tensor_id, tail_bytes,
                    share_tail,
                ))
        except Exception:
            self._rollback(tensor)
            raise
        self._tensors[tensor.tensor_id] = tensor
        self.bytes_requested += tensor.nbytes
        return tensor

    def _place_tail(
        self,
        pool: DevicePool,
        share_key: tuple[DeviceKind, np.dtype],
        tensor_id: int,
        tail_bytes: int,
        share_tail: bool,
    ) -> Page:
        if share_tail:
            candidate = self._open_shared.get(share_key)
            if (
                candidate is not None
                and candidate.has_storage
                and candidate.pool is pool
                and len(candidate.tensor_ids) == 1
                and candidate.available_bytes >= tail_bytes
            ):
                candidate.allocate(tail_bytes, tensor_id)
                self._open_shared[share_key] = None  # now holds two tensors
                return candidate
        page = self._acquire_page(pool)
        page.allocate(tail_bytes, tensor_id)
        if share_tail and page.available_bytes > 0:
            self._open_shared[share_key] = page
        return page

    def _rollback(self, tensor: PagedTensor) -> None:
        for page in tensor.page_list:
            page.release(tensor.tensor_id)
            if page.is_empty and page.has_storage:
                self._retire_page(page)
        tensor.page_list.clear()

    # ------------------------------------------------------------------
    # Release / move / merge
    # ------------------------------------------------------------------
    def release(self, tensor: PagedTensor) -> None:
        """Free the tensor's slots; empty pages return to their pools."""
        if tensor.is_released:
            raise TensorStateError(f"tensor {tensor.tensor_id} already released")
        if tensor.tensor_id not in self._tensors:
            raise TensorStateError(f"tensor {tensor.tensor_id} is not managed here")
        self._rollback(tensor)
        tensor._released = True
        del self._tensors[tensor.tensor_id]

    def pages_to_move(self, tensors, device: DeviceKind) -> list[Page]:
        """``tensors``' pages that ``device`` lacks, each exactly once.

        Pages already resident on the target are skipped and a page
        shared by two tensors' tails (§4.1) appears once, so a move
        transfers each physical page at most once — and its length is
        how many free target pages :meth:`move_pages` will take, which
        is what a caller compares with ``pool(device).free_pages``
        before deciding to evict.
        """
        target = self.pool(device)
        pages: list[Page] = []
        seen: set[int] = set()
        for tensor in tensors:
            tensor._check_live()
            for page in tensor.page_list:
                if page.pool is target or id(page) in seen:
                    continue
                seen.add(id(page))
                pages.append(page)
        return pages

    def move_pages(self, tensors, device: DeviceKind) -> MoveReport:
        """The one move entry point: transfer ``tensors``' pages to a tier.

        Pages are grouped by source pool, sorted by arena slot, paired
        with the lowest free destination slots and coalesced into
        contiguous runs — each run is ONE gather/scatter slice copy
        between arenas (O(runs) copy calls for an N-page MoveGroup, the
        §5 PCIe-burst behaviour), executed under the retry policy and
        recorded per (src, dst) edge as ``pages.copy_calls`` /
        ``pages.bytes_per_copy_call`` / ``pages.moved_per_sec``.

        On failure, pages of already-completed runs stay moved; the
        failing run and everything after it roll back to RESIDENT on the
        source tier before the error propagates.
        """
        report = MoveReport()
        moving = self.pages_to_move(tensors, device)
        if not moving:
            return report
        target = self.pool(device)
        telemetry = self.telemetry
        # Each (src, dst) edge coalesces separately, in first-seen order.
        sources = dict.fromkeys(page._storage.pool for page in moving)
        with telemetry.span(
            f"movebatch.to_{device.name.lower()}", track="pcie", pages=len(moving)
        ):
            for src_pool in sources:
                pages = moving if len(sources) == 1 else [
                    page for page in moving if page._storage.pool is src_pool
                ]
                report.merge(self._move_group(src_pool, target, pages))
        if telemetry.enabled:
            telemetry.counter("pipeline.move_batches").inc()
            telemetry.counter("pipeline.coalesced_pages").inc(len(moving))
        return report

    def _move_group(self, src_pool: DevicePool, target: DevicePool,
                    pages: list[Page]) -> MoveReport:
        """Move one source pool's pages to ``target`` in coalesced runs."""
        # Ascending source slots paired with the lowest free destination
        # slots (both ascending) maximizes run length on both arenas. An
        # OutOfMemoryError leaves here before any page changed state.
        dst = target.acquire_storage_run(len(pages))
        pages.sort(key=_arena_slot)
        slots = [page._storage.index for page in pages]
        for page in pages:
            page.state = PageState.MOVING
        # A tail page that is leaving its tier stops being open for sharing.
        for key, candidate in self._open_shared.items():
            if candidate is not None and candidate.state is PageState.MOVING:
                self._open_shared[key] = None
        telemetry = self.telemetry
        live = telemetry.enabled  # keeps the per-page no-op call off the loop
        src_name = src_pool.device_kind.name.lower()
        dst_name = target.device_kind.name.lower()
        report = MoveReport()
        started = time.perf_counter()
        count, start = len(pages), 0
        for stop in range(1, count + 1):
            # A run extends while BOTH the source and the destination slot
            # advance by exactly one page: one slice copy on both arenas.
            if (
                stop < count
                and slots[stop] == slots[stop - 1] + 1
                and dst[stop].index == dst[stop - 1].index + 1
            ):
                continue
            try:
                self._copy_run(src_pool, target, slots[start],
                               dst[start].index, stop - start)
            except Exception:
                # This run and every later one roll back; earlier runs
                # were already re-homed and stay moved.
                for page, storage in zip(pages[start:], dst[start:]):
                    target.release_storage(storage)
                    page.state = PageState.RESIDENT
                raise
            # Re-home the run's pages: release the source slots, attach
            # the destination storages.
            for page, storage in zip(pages[start:stop], dst[start:stop]):
                src_pool.release_storage(page._storage)
                page._storage = storage
                page.state = PageState.RESIDENT
                report.bytes_moved += page.total_bytes
                if live:
                    telemetry.record_page_move(src_name, dst_name,
                                               page.total_bytes)
            report.pages_moved += stop - start
            report.copy_calls += 1
            start = stop
        telemetry.record_copy_batch(
            src_name, dst_name, report.pages_moved, report.bytes_moved,
            report.copy_calls, time.perf_counter() - started,
        )
        return report

    def _copy_run(self, src_pool, target, src_start, dst_start, npages) -> None:
        if self.retry_policy is None:
            _copy_page_run(src_pool, target, src_start, dst_start, npages)
        else:
            self.retry_policy.run(lambda: _copy_page_run(
                src_pool, target, src_start, dst_start, npages))

    def merge(self, tensor: PagedTensor) -> None:
        """Re-pack into exclusive pages on the tensor's current device.

        Implements Figure 4's ``merge``: after merging, the tensor's bytes
        occupy pages it owns alone, in order, starting at offset zero.
        """
        tensor._check_live()
        if tensor.is_contiguous:
            return
        device = tensor.device_kind
        if device is None:
            raise TensorStateError(
                f"tensor {tensor.tensor_id} spans devices; move it first"
            )
        data = tensor.read_array()
        old_pages = list(tensor.page_list)
        tensor.page_list = []
        pool = self.pool(device)
        remaining = tensor.nbytes
        try:
            while remaining > 0:
                chunk = min(remaining, self.page_bytes)
                page = self._acquire_page(pool)
                page.allocate(chunk, tensor.tensor_id)
                tensor.page_list.append(page)
                remaining -= chunk
        except Exception:
            self._rollback(tensor)
            tensor.page_list = old_pages
            raise
        for page in old_pages:
            page.release(tensor.tensor_id)
            if page.is_empty and page.has_storage:
                self._retire_page(page)
        tensor.write_array(data)

    def _forget_shared(self, page: Page) -> None:
        for key, candidate in self._open_shared.items():
            if candidate is page:
                self._open_shared[key] = None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def used_bytes(self, device: DeviceKind) -> int:
        return self.pool(device).used_bytes

    def free_bytes(self, device: DeviceKind) -> int:
        return self.pool(device).free_bytes

    def internal_fragmentation(self, device: DeviceKind) -> float:
        """Fraction of reserved page bytes not holding live tensor data."""
        pool = self.pool(device)
        if pool.used_bytes == 0:
            return 0.0
        live = sum(
            nbytes
            for tensor in self._tensors.values()
            for page in tensor.page_list
            if page.has_storage and page.pool is pool
            for _, nbytes in [page.slot_of(tensor.tensor_id)]
        )
        return 1.0 - live / pool.used_bytes

    def close(self) -> None:
        for pool in self._pools.values():
            pool.close()
        # A torn-down engine returns its whole footprint to the ledger even
        # when individual tensors were never released (preemption path).
        if self.quota is not None and self._pages_charged:
            self.quota.credit(self.owner, self._pages_charged)
            self._pages_charged = 0

    def __enter__(self) -> "PageAllocator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
