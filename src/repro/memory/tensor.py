"""The paged Tensor structure (Figure 4 of the paper).

A tensor is composed of at least one page; pages need not be contiguous, so
``merge`` can be used to re-pack the tensor into exclusively-owned pages.
``device_index`` follows the paper's convention, including the footnote
value ``-1`` when the tensor's pages are split across devices (not ready
for computation).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TensorStateError
from repro.hardware.device import DeviceKind
from repro.memory.page import Page


class PagedTensor:
    """A multi-dimensional array whose bytes live in pages.

    Instances are created by :class:`~repro.memory.allocator.PageAllocator`;
    direct construction is for tests. Data access gathers/scatters through
    the page slots, which exercises the same byte paths a real hierarchical
    memory manager uses.
    """

    def __init__(self, tensor_id: int, shape: tuple[int, ...], dtype: np.dtype, allocator=None):
        self.tensor_id = tensor_id
        self.shape = tuple(int(dim) for dim in shape)
        self.dtype = np.dtype(dtype)
        self.size = math.prod(self.shape)
        self.nbytes = self.size * self.dtype.itemsize
        self.page_list: list[Page] = []
        self._allocator = allocator
        self._released = False

    # ------------------------------------------------------------------
    # Shape / placement
    # ------------------------------------------------------------------
    @property
    def is_released(self) -> bool:
        return self._released

    @property
    def device_index(self) -> int:
        """0=GPU, 1=CPU, 2=SSD; -1 when unallocated or split across tiers."""
        if self._released or not self.page_list:
            return -1
        pages = iter(self.page_list)
        index = next(pages).device_index
        for page in pages:
            if page.device_index != index:
                return -1
        return index

    @property
    def device_kind(self) -> DeviceKind | None:
        index = self.device_index
        if index < 0:
            return None
        return DeviceKind(index)

    @property
    def is_contiguous(self) -> bool:
        """True when every page is exclusively owned by this tensor."""
        self._check_live()
        return all(page.tensor_ids == (self.tensor_id,) for page in self.page_list)

    def _check_live(self) -> None:
        if self._released:
            raise TensorStateError(f"tensor {self.tensor_id} has been released")
        if not self.page_list:
            raise TensorStateError(f"tensor {self.tensor_id} has no pages")

    def _segments(self):
        """Yield (page, page_offset, nbytes, tensor_offset) in byte order."""
        cursor = 0
        for page in self.page_list:
            offset, nbytes = page.slot_of(self.tensor_id)
            yield page, offset, nbytes, cursor
            cursor += nbytes
        if cursor != self.nbytes:
            raise TensorStateError(
                f"tensor {self.tensor_id}: pages cover {cursor} of {self.nbytes} bytes"
            )

    # ------------------------------------------------------------------
    # Paper interfaces (Figure 4)
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Free this tensor's space in every page (via the allocator)."""
        self._require_allocator().release(self)

    def merge(self) -> None:
        """Re-pack into exclusively-owned pages so the data is contiguous."""
        self._require_allocator().merge(self)

    def _require_allocator(self):
        if self._allocator is None:
            raise TensorStateError(
                f"tensor {self.tensor_id} is not managed by an allocator"
            )
        return self._allocator

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    def read_array(self) -> np.ndarray:
        """Gather the tensor's bytes from its pages into an ndarray."""
        out = np.empty(self.shape, dtype=self.dtype)
        gather([self], [out])
        return out

    def write_array(self, array: np.ndarray) -> None:
        """Scatter ``array`` into the tensor's pages (zero-copy views)."""
        scatter([self], [array])

    def __repr__(self) -> str:
        status = "released" if self._released else f"dev={self.device_index}"
        return (
            f"PagedTensor(id={self.tensor_id}, shape={self.shape}, "
            f"dtype={self.dtype.name}, pages={len(self.page_list)}, {status})"
        )


def _requests_by_pool(tensors, arrays) -> dict:
    """Every tensor's page segments as ``(slot, offset, view)`` requests,
    one list per pool, each view a window of the tensor's array."""
    requests: dict = {}
    for tensor, array in zip(tensors, arrays, strict=True):
        tensor._check_live()
        if array.shape != tensor.shape or array.dtype != tensor.dtype:
            raise TensorStateError(
                f"mismatch: tensor {tensor.shape} {tensor.dtype}, "
                f"array {array.shape} {array.dtype}"
            )
        raw = memoryview(array).cast("B")  # C-contiguous, or TypeError
        for page, offset, nbytes, cursor in tensor._segments():
            storage = page.storage
            storage._check_range(offset, nbytes)
            requests.setdefault(storage.pool, []).append(
                (storage.index, offset, raw[cursor:cursor + nbytes])
            )
    return requests


def gather(tensors, outs) -> None:
    """Read ``tensors`` into ``outs`` (C-contiguous arrays of the same
    shape and dtype): ONE vectored read per pool, straight into ``outs``."""
    for pool, requests in _requests_by_pool(tensors, outs).items():
        pool.preadv(requests)


def scatter(tensors, arrays) -> None:
    """Write ``arrays`` into ``tensors``' pages: ONE vectored write per
    pool."""
    arrays = [
        np.ascontiguousarray(array, dtype=tensor.dtype)
        for tensor, array in zip(tensors, arrays, strict=True)
    ]
    for pool, requests in _requests_by_pool(tensors, arrays).items():
        pool.pwritev(requests)
