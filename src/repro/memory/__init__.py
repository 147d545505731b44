"""Page-based hierarchical memory management (Section 4.1 of the paper).

The ``Page`` is the minimum unit of every memory operation — allocation,
release, movement and communication. Device pools pre-allocate their
capacity up front (as Angel-PTM's Allocator does, Section 5) as one
contiguous arena and hand out fixed-size pages; tensors are composed of
pages with at most two tensors sharing one page. Page moves go through
:meth:`PageAllocator.move_pages`, which coalesces contiguous arena runs
into single zero-copy slice copies.

Three baseline allocators used by the fragmentation ablation live here too:
TensorFlow-style best-fit-with-coalescing (BFC), PatrickStar-style chunks,
and a PyTorch-style caching allocator.
"""

from repro.memory.arena import ArenaPoolBackend
from repro.memory.page import DEFAULT_PAGE_BYTES, Page, PageState
from repro.memory.pool import DevicePool, FilePoolBackend, NullPoolBackend
from repro.memory.allocator import MoveReport, PageAllocator, PageQuota
from repro.memory.tensor import PagedTensor
from repro.memory.fragmentation import FragmentationStats

__all__ = [
    "ArenaPoolBackend",
    "PageQuota",
    "DEFAULT_PAGE_BYTES",
    "MoveReport",
    "Page",
    "PageState",
    "DevicePool",
    "FilePoolBackend",
    "NullPoolBackend",
    "PageAllocator",
    "PagedTensor",
    "FragmentationStats",
]
