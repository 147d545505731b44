"""Property-based tests of memory-management invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutOfMemoryError, PageStateError
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


SLOTS = 24

# (operation, argument) pairs driving one pool's free-slot structure.
pool_ops = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=SLOTS + 2)),
        st.tuples(st.just("one"), st.just(0)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("refree"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("foreign"), st.just(0)),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=pool_ops)
def test_free_runs_match_a_set_model(ops):
    """The pool's sorted free runs against a plain ``set`` of free slots:

    - a run acquire returns exactly the ``count`` lowest free slots,
      ascending, or raises OutOfMemoryError having taken nothing,
    - double free and wrong-pool release raise PageStateError,
    - the counters agree with the model after every operation,
    - the runs stay sorted, disjoint and coalesced, and a full release
      returns the structure to one run.
    """
    pool = DevicePool(DeviceKind.CPU, SLOTS * PAGE, page_bytes=PAGE, backend="null")
    other = DevicePool(DeviceKind.CPU, SLOTS * PAGE, page_bytes=PAGE, backend="null")
    foreign = other.acquire_storage_run(1)[0]
    free = set(range(SLOTS))
    held, released, peak = {}, [], 0

    def check():
        assert pool.free_pages == len(free)
        assert pool.free_bytes == len(free) * PAGE
        assert pool.pages_in_use == SLOTS - len(free)
        assert pool.peak_in_use == peak
        runs = list(zip(pool._free_starts, pool._free_stops))
        assert all(start < stop for start, stop in runs)
        assert all(a[1] < b[0] for a, b in zip(runs, runs[1:]))  # coalesced
        assert {i for start, stop in runs for i in range(start, stop)} == free

    for kind, arg in ops:
        if kind in ("run", "one"):
            count = arg if kind == "run" else 1
            if count > len(free):
                with pytest.raises(OutOfMemoryError) as err:
                    pool.acquire_storage_run(count)
                assert err.value.available_bytes == len(free) * PAGE
            else:
                got = (pool.acquire_storage_run(count) if kind == "run"
                       else [pool.acquire_storage(PAGE)])
                assert [s.index for s in got] == sorted(free)[:count]
                assert all(s.pool is pool and s.nbytes == PAGE for s in got)
                for storage in got:
                    free.remove(storage.index)
                    held[storage.index] = storage
                peak = max(peak, SLOTS - len(free))
        elif kind == "free" and held:
            storage = held.pop(sorted(held)[arg % len(held)])
            pool.release_storage(storage)
            free.add(storage.index)
            released.append(storage)
        elif kind == "refree":
            stale = [s for s in released if s.index in free]
            if stale:
                with pytest.raises(PageStateError, match="double free"):
                    pool.release_storage(stale[arg % len(stale)])
        elif kind == "foreign":
            with pytest.raises(PageStateError, match="wrong pool"):
                pool.release_storage(foreign)
        check()
    for storage in held.values():
        pool.release_storage(storage)
    assert (pool._free_starts, pool._free_stops) == ([0], [SLOTS])
    assert pool.free_pages == SLOTS and pool.pages_in_use == 0


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
