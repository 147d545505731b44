"""Property-based tests of memory-management invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutOfMemoryError
from repro.hardware.device import DeviceKind
from repro.memory import DevicePool, PageAllocator
from repro.memory.bfc import BfcAllocator
from repro.memory.page import MAX_TENSORS_PER_PAGE
from repro.units import KiB

PAGE = 16 * KiB


def fresh_allocator(capacity_pages=64):
    pools = {
        DeviceKind.GPU: DevicePool(
            DeviceKind.GPU, capacity_pages * PAGE, page_bytes=PAGE, backend="null"
        ),
        DeviceKind.CPU: DevicePool(
            DeviceKind.CPU, capacity_pages * PAGE, page_bytes=PAGE, backend="null"
        ),
    }
    return PageAllocator(pools)


# Each action: (nbytes to allocate) or (index of live tensor to free,
# encoded as negative).
actions = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=3 * PAGE),      # allocate nbytes
        st.integers(min_value=-20, max_value=-1),          # free live[i % len]
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(actions=actions)
def test_allocator_invariants_under_random_churn(actions):
    """Random allocate/free sequences preserve the core invariants:

    - every page holds at most two tensors,
    - pool page accounting equals the pages referenced by live tensors,
    - released pages return to the free list (no leaks),
    - live tensors' slots exactly cover their byte size.
    """
    alloc = fresh_allocator()
    pool = alloc.pool(DeviceKind.CPU)
    live = []
    for action in actions:
        if action > 0:
            try:
                tensor = alloc.allocate((action,), np.uint8, DeviceKind.CPU)
            except OutOfMemoryError:
                continue
            live.append(tensor)
        elif live:
            victim = live.pop(abs(action) % len(live) if len(live) else 0)
            victim.release()

        referenced = {
            page.page_id for tensor in live for page in tensor.page_list
        }
        assert pool.pages_in_use == len(referenced)
        for tensor in live:
            assert sum(
                page.slot_of(tensor.tensor_id)[1] for page in tensor.page_list
            ) == tensor.nbytes
            for page in tensor.page_list:
                assert len(page.tensor_ids) <= MAX_TENSORS_PER_PAGE

    for tensor in live:
        tensor.release()
    assert pool.pages_in_use == 0


@settings(max_examples=60, deadline=None)
@given(actions=actions)
def test_moves_preserve_accounting(actions):
    """Moving tensors between tiers conserves total page counts."""
    alloc = fresh_allocator()
    gpu = alloc.pool(DeviceKind.GPU)
    cpu = alloc.pool(DeviceKind.CPU)
    live = []
    for i, action in enumerate(actions):
        if action > 0:
            try:
                live.append(alloc.allocate((action,), np.uint8, DeviceKind.CPU))
            except OutOfMemoryError:
                continue
        elif live:
            tensor = live[abs(action) % len(live)]
            target = DeviceKind.GPU if i % 2 else DeviceKind.CPU
            try:
                alloc.move_pages([tensor], target)
            except OutOfMemoryError:
                continue
        total_pages = len({
            page.page_id for tensor in live for page in tensor.page_list
        })
        assert gpu.pages_in_use + cpu.pages_in_use == total_pages


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=8 * KiB), min_size=1, max_size=40),
    frees=st.lists(st.integers(min_value=0, max_value=39), max_size=40),
)
def test_bfc_blocks_never_overlap(sizes, frees):
    """BFC invariant: live blocks are disjoint and free bytes conserved."""
    bfc = BfcAllocator(512 * KiB, alignment=64)
    live = {}
    for req_id, nbytes in enumerate(sizes):
        try:
            offset = bfc.alloc(req_id, nbytes)
        except OutOfMemoryError:
            continue
        rounded = (nbytes + 63) // 64 * 64
        live[req_id] = (offset, rounded)
    for index in frees:
        if index in live:
            bfc.free(index)
            del live[index]

    spans = sorted(live.values())
    for (off_a, len_a), (off_b, _) in zip(spans, spans[1:]):
        assert off_a + len_a <= off_b
    assert bfc.free_bytes == bfc.capacity_bytes - sum(l for _, l in live.values())


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.integers(min_value=1, max_value=2 * PAGE), min_size=1, max_size=10
    )
)
def test_roundtrip_bytes_with_random_sizes(data):
    """Functional pools: write/read roundtrips for arbitrary sizes."""
    pools = {
        DeviceKind.CPU: DevicePool(
            DeviceKind.CPU, 64 * PAGE, page_bytes=PAGE, backend="ram"
        )
    }
    alloc = PageAllocator(pools)
    rng = np.random.default_rng(0)
    tensors = []
    for nbytes in data:
        tensor = alloc.allocate((nbytes,), np.uint8, DeviceKind.CPU)
        payload = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
        tensor.write_array(payload)
        tensors.append((tensor, payload))
    for tensor, payload in tensors:
        assert np.array_equal(tensor.read_array(), payload)
    alloc.close()
