"""Edge cases of the memory subsystem not covered elsewhere."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, OutOfMemoryError, TensorStateError
from repro.hardware.device import DeviceKind
from repro.memory import DevicePool, PageAllocator
from repro.memory.fragmentation import TraceEvent
from repro.units import KiB

PAGE = 16 * KiB


def small_allocator(gpu_pages=4, cpu_pages=16):
    return PageAllocator({
        DeviceKind.GPU: DevicePool(DeviceKind.GPU, gpu_pages * PAGE, page_bytes=PAGE),
        DeviceKind.CPU: DevicePool(DeviceKind.CPU, cpu_pages * PAGE, page_bytes=PAGE),
    })


class TestShareTailFlag:
    def test_share_tail_false_gets_exclusive_pages(self):
        with small_allocator() as alloc:
            nelems = PAGE + PAGE // 4  # full page + tail
            a = alloc.allocate((nelems,), np.uint8, DeviceKind.CPU, share_tail=False)
            b = alloc.allocate((nelems,), np.uint8, DeviceKind.CPU, share_tail=False)
            assert a.page_list[-1] is not b.page_list[-1]
            assert a.is_contiguous and b.is_contiguous

    def test_shared_candidate_not_reused_after_release(self):
        with small_allocator() as alloc:
            nelems = PAGE + PAGE // 4
            a = alloc.allocate((nelems,), np.uint8, DeviceKind.CPU)
            shared = a.page_list[-1]
            a.release()
            # The open shared page was returned to the pool; a fresh
            # allocation must not reference the stale page object.
            b = alloc.allocate((nelems,), np.uint8, DeviceKind.CPU)
            assert all(p.has_storage for p in b.page_list)


class TestMergeEdgeCases:
    def test_merge_oom_leaves_tensor_intact(self):
        """Merge needs fresh pages; if none exist the tensor survives."""
        with small_allocator(gpu_pages=3) as alloc:
            nelems = PAGE + PAGE // 4
            a = alloc.allocate((nelems,), np.uint8, DeviceKind.GPU)
            b = alloc.allocate((nelems,), np.uint8, DeviceKind.GPU)  # shares tail
            data = np.arange(nelems, dtype=np.uint8)
            b.write_array(data)
            assert not b.is_contiguous
            with pytest.raises(OutOfMemoryError):
                b.merge()  # needs 2 fresh pages; only 0 free
            np.testing.assert_array_equal(b.read_array(), data)

    def test_merge_split_device_rejected(self):
        with small_allocator() as alloc:
            nelems = PAGE + PAGE // 4
            a = alloc.allocate((nelems,), np.uint8, DeviceKind.CPU)
            b = alloc.allocate((nelems,), np.uint8, DeviceKind.CPU)
            alloc.move_pages([a], DeviceKind.GPU)  # carries the shared tail page along
            assert b.device_index == -1
            with pytest.raises(TensorStateError):
                b.merge()


class TestAllocatorRegistry:
    def test_release_of_foreign_tensor_rejected(self):
        with small_allocator() as alloc_a, small_allocator() as alloc_b:
            tensor = alloc_a.allocate((10,), np.uint8, DeviceKind.CPU)
            with pytest.raises(TensorStateError):
                alloc_b.release(tensor)
            tensor.release()

    def test_tensors_listing(self):
        with small_allocator() as alloc:
            a = alloc.allocate((10,), np.uint8, DeviceKind.CPU)
            b = alloc.allocate((10,), np.uint8, DeviceKind.CPU)
            assert set(t.tensor_id for t in alloc.tensors) == {
                a.tensor_id, b.tensor_id,
            }
            a.release()
            assert [t.tensor_id for t in alloc.tensors] == [b.tensor_id]

    def test_move_to_unconfigured_device_rejected(self):
        with small_allocator() as alloc:
            tensor = alloc.allocate((10,), np.uint8, DeviceKind.CPU)
            with pytest.raises(AllocationError):
                alloc.move_pages([tensor], DeviceKind.SSD)


class TestTraceEventHelpers:
    def test_constructors(self):
        alloc_event = TraceEvent.alloc(3, 128)
        free_event = TraceEvent.free(3)
        assert alloc_event.op == "alloc" and alloc_event.nbytes == 128
        assert free_event.op == "free" and free_event.req_id == 3

    def test_unknown_op_rejected_by_replay(self):
        from repro.memory.bfc import BfcAllocator
        from repro.memory.fragmentation import replay

        with pytest.raises(ValueError):
            replay(BfcAllocator(1024), [TraceEvent("defrag", 1, 0)])


# ---------------------------------------------------------------------------
# Arena storage API (zero-copy rework)
# ---------------------------------------------------------------------------
class TestArenaBackends:
    def test_view_window_is_writable_and_aliased(self):
        from repro.memory.arena import ArenaPoolBackend

        backend = ArenaPoolBackend(num_pages=4, page_bytes=64)
        try:
            backend.view(2, 8, 4)[:] = b"abcd"
            out = bytearray(4)
            assert backend.readinto(2, 8, out) == 4
            assert bytes(out) == b"abcd"
        finally:
            backend.close()

    def test_view_outside_arena_rejected(self):
        from repro.memory.arena import ArenaPoolBackend

        backend = ArenaPoolBackend(num_pages=2, page_bytes=64)
        try:
            with pytest.raises(AllocationError):
                backend.view(1, 32, 64)  # spills past the last page
        finally:
            backend.close()

    def test_shared_arena_exports_descriptor(self):
        from repro.memory.arena import SHM_DESCRIPTOR, ArenaPoolBackend

        private = ArenaPoolBackend(num_pages=2, page_bytes=64)
        shared = ArenaPoolBackend(num_pages=2, page_bytes=64, shared=True)
        try:
            assert private.descriptor() is None
            kind, name = shared.descriptor()
            assert kind == SHM_DESCRIPTOR and name == shared.name
        finally:
            private.close()
            shared.close()

    def test_file_backend_pread_fallback_roundtrip(self):
        from repro.memory.arena import FilePoolBackend

        backend = FilePoolBackend(num_pages=4, page_bytes=64, use_mmap=False)
        try:
            payload = bytes(range(64))
            assert backend.write_from(3, 0, payload) == 64
            out = bytearray(64)
            assert backend.readinto(3, 0, out) == 64
            assert bytes(out) == payload
        finally:
            backend.close()

    def test_file_backend_short_read_is_an_error(self, monkeypatch):
        """EOF mid-range must raise, never silently truncate the page."""
        import os

        from repro.memory.arena import FilePoolBackend

        backend = FilePoolBackend(num_pages=2, page_bytes=64, use_mmap=False)
        try:
            monkeypatch.setattr(os, "pread", lambda fd, n, off: b"")
            with pytest.raises(AllocationError, match="short read"):
                backend.readinto(0, 0, bytearray(64))
        finally:
            backend.close()

    def test_bytes_only_backend_rejected(self):
        """A backend (or wrapper) without readinto/write_from is refused
        where it is installed, not on the first page move."""
        class BytesBackend:
            def read(self, index, offset, nbytes):
                return bytes(nbytes)

            def write(self, index, offset, data):
                pass

            def close(self):
                pass

        with pytest.raises(AllocationError, match="readinto/write_from"):
            DevicePool(
                DeviceKind.CPU, 4 * PAGE, page_bytes=PAGE,
                backend=BytesBackend(),
            )
        with DevicePool(DeviceKind.CPU, 4 * PAGE, page_bytes=PAGE) as pool:
            inner = pool._backend
            with pytest.raises(AllocationError, match="readinto/write_from"):
                pool.wrap_backend(lambda backend: BytesBackend())
            assert pool._backend is inner


class TestMovePagesApi:
    def three_tier(self, gpu_pages=6, cpu_pages=32, ssd_pages=32):
        return PageAllocator({
            DeviceKind.GPU: DevicePool(
                DeviceKind.GPU, gpu_pages * PAGE, page_bytes=PAGE
            ),
            DeviceKind.CPU: DevicePool(
                DeviceKind.CPU, cpu_pages * PAGE, page_bytes=PAGE
            ),
            DeviceKind.SSD: DevicePool(
                DeviceKind.SSD, ssd_pages * PAGE, page_bytes=PAGE,
                backend="file",
            ),
        })

    def test_shared_tail_moves_exactly_once(self):
        """Two tensors sharing a tail page: the group moves each unique
        page once — MoveReport counts pages, not tensor references."""
        with self.three_tier() as alloc:
            nelems = PAGE + PAGE // 4
            a = alloc.allocate((nelems,), np.uint8, DeviceKind.CPU)
            b = alloc.allocate((nelems,), np.uint8, DeviceKind.CPU)
            assert a.page_list[-1] is b.page_list[-1]  # shared tail
            unique_pages = {id(p) for t in (a, b) for p in t.page_list}
            data_a = np.arange(nelems, dtype=np.uint8)
            data_b = data_a[::-1].copy()
            a.write_array(data_a)
            b.write_array(data_b)

            report = alloc.move_pages([a, b], DeviceKind.GPU)
            assert report.pages_moved == len(unique_pages) == 3
            assert report.bytes_moved == 3 * PAGE
            np.testing.assert_array_equal(a.read_array(), data_a)
            np.testing.assert_array_equal(b.read_array(), data_b)


# Interleaved-churn property: which tensor, and what to do with it.
# Devices move it; "cycle" releases and reallocates it with fresh bytes.
churn = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["gpu", "cpu", "ssd", "cycle"]),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(actions=churn)
def test_churn_across_tiers_preserves_bytes(actions):
    """Random interleaved acquire/release/move across all three tiers:
    every live tensor reads back exactly the bytes last written, no
    matter which arenas its pages have visited or who shares its tail."""
    devices = {
        "gpu": DeviceKind.GPU, "cpu": DeviceKind.CPU, "ssd": DeviceKind.SSD,
    }
    rng = np.random.default_rng(0)
    alloc = PageAllocator({
        DeviceKind.GPU: DevicePool(DeviceKind.GPU, 8 * PAGE, page_bytes=PAGE),
        DeviceKind.CPU: DevicePool(DeviceKind.CPU, 32 * PAGE, page_bytes=PAGE),
        DeviceKind.SSD: DevicePool(
            DeviceKind.SSD, 32 * PAGE, page_bytes=PAGE, backend="file"
        ),
    })
    with alloc:
        # Odd sizes so tails are shared between neighbours at birth.
        sizes = [PAGE // 2, PAGE + PAGE // 4, 2 * PAGE, PAGE // 3,
                 PAGE + PAGE // 2, 3 * PAGE // 4]
        live, expected = [], []
        for size in sizes:
            data = rng.integers(0, 256, size=size, dtype=np.uint8)
            tensor = alloc.allocate((size,), np.uint8, DeviceKind.CPU)
            tensor.write_array(data)
            live.append(tensor)
            expected.append(data)

        for index, action in actions:
            tensor = live[index]
            if action == "cycle":
                tensor.release()
                data = rng.integers(
                    0, 256, size=sizes[index], dtype=np.uint8
                )
                tensor = alloc.allocate(
                    (sizes[index],), np.uint8, DeviceKind.CPU
                )
                tensor.write_array(data)
                live[index] = tensor
                expected[index] = data
                continue
            # Move a pair so MoveGroups span tensors (and shared tails).
            partner = live[(index + 1) % len(live)]
            try:
                alloc.move_pages([tensor, partner], devices[action])
            except OutOfMemoryError:
                continue  # tiny GPU pool; the property is about bytes

        for tensor, data in zip(live, expected):
            np.testing.assert_array_equal(tensor.read_array(), data)
