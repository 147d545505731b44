"""Page allocator: placement policy, movement, merge, accounting."""

import numpy as np
import pytest

from repro.errors import AllocationError, OutOfMemoryError, TensorStateError
from repro.hardware.device import DeviceKind
from repro.memory import DevicePool, PageAllocator
from repro.units import KiB, MiB

PAGE = 256 * KiB


@pytest.fixture
def alloc():
    pools = {
        DeviceKind.GPU: DevicePool(DeviceKind.GPU, 4 * MiB, page_bytes=PAGE),
        DeviceKind.CPU: DevicePool(DeviceKind.CPU, 16 * MiB, page_bytes=PAGE),
        DeviceKind.SSD: DevicePool(
            DeviceKind.SSD, 16 * MiB, page_bytes=PAGE, backend="file"
        ),
    }
    allocator = PageAllocator(pools)
    yield allocator
    allocator.close()


class TestPlacementPolicy:
    def test_small_tensor_gets_individual_page(self, alloc):
        """Paper: tensors smaller than a page occupy their own page."""
        a = alloc.allocate((10,), np.float32, DeviceKind.CPU)
        b = alloc.allocate((10,), np.float32, DeviceKind.CPU)
        assert len(a.page_list) == 1
        assert a.page_list[0] is not b.page_list[0]

    def test_large_tensor_spans_pages(self, alloc):
        nelems = (3 * PAGE) // 4  # 3 pages of float32
        t = alloc.allocate((nelems,), np.float32, DeviceKind.CPU)
        assert len(t.page_list) == 3

    def test_tails_share_a_page(self, alloc):
        """Two large tensors' sub-page tails pack into one shared page."""
        nelems = PAGE // 4 + PAGE // 16  # 1 full page + quarter-page tail
        a = alloc.allocate((nelems,), np.float32, DeviceKind.CPU)
        b = alloc.allocate((nelems,), np.float32, DeviceKind.CPU)
        assert a.page_list[-1] is b.page_list[-1]
        assert set(a.page_list[-1].tensor_ids) == {a.tensor_id, b.tensor_id}

    def test_at_most_two_tensors_per_shared_page(self, alloc):
        nelems = PAGE // 4 + PAGE // 32
        tensors = [
            alloc.allocate((nelems,), np.float32, DeviceKind.CPU) for _ in range(3)
        ]
        shared = tensors[0].page_list[-1]
        assert len(shared.tensor_ids) <= 2
        assert tensors[2].page_list[-1] is not shared

    def test_exact_page_multiple_has_no_tail(self, alloc):
        t = alloc.allocate((PAGE // 4,), np.float32, DeviceKind.CPU)
        assert len(t.page_list) == 1
        assert t.page_list[0].available_bytes == 0

    def test_zero_sized_tensor_rejected(self, alloc):
        with pytest.raises(AllocationError):
            alloc.allocate((0,), np.float32, DeviceKind.CPU)

    def test_oom_rolls_back_partial_allocation(self, alloc):
        gpu_pages = alloc.pool(DeviceKind.GPU).num_pages
        with pytest.raises(OutOfMemoryError):
            alloc.allocate(((gpu_pages + 2) * PAGE,), np.uint8, DeviceKind.GPU)
        assert alloc.pool(DeviceKind.GPU).pages_in_use == 0

    def test_mismatched_page_sizes_rejected(self):
        pools = {
            DeviceKind.GPU: DevicePool(DeviceKind.GPU, MiB, page_bytes=64 * KiB),
            DeviceKind.CPU: DevicePool(DeviceKind.CPU, MiB, page_bytes=128 * KiB),
        }
        with pytest.raises(AllocationError):
            PageAllocator(pools)


class TestDataPaths:
    def test_roundtrip_across_pages(self, alloc):
        shape = (PAGE // 2, 3)  # spans pages with a tail
        t = alloc.allocate(shape, np.float16, DeviceKind.CPU)
        data = np.random.default_rng(1).standard_normal(shape).astype(np.float16)
        t.write_array(data)
        assert np.array_equal(t.read_array(), data)

    def test_move_preserves_data_through_all_tiers(self, alloc):
        t = alloc.allocate((5000,), np.float32, DeviceKind.CPU)
        data = np.arange(5000, dtype=np.float32)
        t.write_array(data)
        for device in (DeviceKind.SSD, DeviceKind.GPU, DeviceKind.CPU):
            alloc.move_pages([t], device)
            assert t.device_kind == device
            assert np.array_equal(t.read_array(), data)

    def test_move_carries_cotenant(self, alloc):
        nelems = PAGE // 4 + PAGE // 16
        a = alloc.allocate((nelems,), np.float32, DeviceKind.CPU)
        b = alloc.allocate((nelems,), np.float32, DeviceKind.CPU)
        assert a.page_list[-1] is b.page_list[-1]
        alloc.move_pages([a], DeviceKind.SSD)
        # The shared tail page moved once; b now spans two devices.
        assert b.device_index == -1
        assert a.device_kind == DeviceKind.SSD

    def test_null_to_null_move_allocates_and_copies_nothing(self):
        """Capacity-only pools stay capacity-only: no staging buffer."""
        import tracemalloc

        from repro.telemetry import Telemetry

        page = 4 * MiB
        telemetry = Telemetry()
        allocator = PageAllocator({
            kind: DevicePool(kind, 64 * page, page_bytes=page,
                             backend="null", telemetry=telemetry)
            for kind in (DeviceKind.GPU, DeviceKind.CPU)
        })
        try:
            t = allocator.allocate((64 * page // 4,), np.float32,
                                   DeviceKind.CPU)
            tracemalloc.start()
            try:
                report = allocator.move_pages([t], DeviceKind.GPU)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < page
            assert (report.pages_moved, report.bytes_moved,
                    report.copy_calls) == (64, 64 * page, 1)
            counters = telemetry.dump()["metrics"]["counters"]
            assert counters["io.read_bytes{tier=cpu}"] == 64 * page
            assert counters["io.write_bytes{tier=gpu}"] == 64 * page
        finally:
            allocator.close()

    @pytest.mark.parametrize("src, dst", [
        (DeviceKind.CPU, DeviceKind.GPU), (DeviceKind.GPU, DeviceKind.CPU),
        (DeviceKind.CPU, DeviceKind.SSD), (DeviceKind.SSD, DeviceKind.CPU),
    ], ids=lambda kind: kind.name.lower())
    def test_group_move_is_one_copy_call_on_every_real_edge(self, src, dst):
        """Fresh pools hand out consecutive arena slots, so a 32-page
        group is one contiguous run: one copy call, not one per page."""
        from repro.telemetry import Telemetry

        page = 64 * KiB
        telemetry = Telemetry()
        backends = {DeviceKind.GPU: "ram", DeviceKind.CPU: "ram",
                    DeviceKind.SSD: "file"}
        with PageAllocator({
            kind: DevicePool(kind, 64 * page, page_bytes=page,
                             backend=backend, telemetry=telemetry)
            for kind, backend in backends.items()
        }, telemetry=telemetry) as allocator:
            tensors = [
                allocator.allocate((4 * page // 4,), np.float32, src)
                for _ in range(8)
            ]
            report = allocator.move_pages(tensors, dst)
            assert (report.pages_moved, report.bytes_moved,
                    report.copy_calls) == (32, 32 * page, 1)
            assert telemetry.registry.value(
                "pages.moved_per_sec",
                src=src.name.lower(), dst=dst.name.lower(),
            ) > 0

    def test_merge_makes_contiguous(self, alloc):
        nelems = PAGE // 4 + PAGE // 16
        a = alloc.allocate((nelems,), np.float32, DeviceKind.CPU)
        b = alloc.allocate((nelems,), np.float32, DeviceKind.CPU)
        data = np.random.default_rng(2).standard_normal(nelems).astype(np.float32)
        b.write_array(data)
        assert not b.is_contiguous
        b.merge()
        assert b.is_contiguous
        assert np.array_equal(b.read_array(), data)
        assert b.page_list[0].slot_of(b.tensor_id)[0] == 0

    def test_merge_noop_when_contiguous(self, alloc):
        t = alloc.allocate((PAGE,), np.uint8, DeviceKind.CPU)
        pages_before = list(t.page_list)
        t.merge()
        assert t.page_list == pages_before

    def test_write_shape_mismatch_rejected(self, alloc):
        t = alloc.allocate((10, 10), np.float32, DeviceKind.CPU)
        with pytest.raises(TensorStateError):
            t.write_array(np.zeros((5, 5), dtype=np.float32))


class TestLifecycle:
    def test_release_returns_pages(self, alloc):
        pool = alloc.pool(DeviceKind.CPU)
        t = alloc.allocate((PAGE,), np.uint8, DeviceKind.CPU)
        used = pool.pages_in_use
        t.release()
        assert pool.pages_in_use == used - 1
        assert t.is_released

    def test_release_keeps_shared_page_for_cotenant(self, alloc):
        nelems = PAGE // 4 + PAGE // 16
        a = alloc.allocate((nelems,), np.float32, DeviceKind.CPU)
        b = alloc.allocate((nelems,), np.float32, DeviceKind.CPU)
        shared = a.page_list[-1]
        data = np.random.default_rng(3).standard_normal(nelems).astype(np.float32)
        b.write_array(data)
        a.release()
        assert shared.tensor_ids == (b.tensor_id,)
        assert np.array_equal(b.read_array(), data)

    def test_double_release_rejected(self, alloc):
        t = alloc.allocate((10,), np.float32, DeviceKind.CPU)
        t.release()
        with pytest.raises(TensorStateError):
            t.release()

    def test_read_after_release_rejected(self, alloc):
        t = alloc.allocate((10,), np.float32, DeviceKind.CPU)
        t.release()
        with pytest.raises(TensorStateError):
            t.read_array()

    def test_internal_fragmentation_measured(self, alloc):
        # A 1-element tensor wastes almost a whole page.
        alloc.allocate((1,), np.float32, DeviceKind.CPU)
        frag = alloc.internal_fragmentation(DeviceKind.CPU)
        assert frag == pytest.approx(1 - 4 / PAGE)

    def test_bytes_requested_tracks_totals(self, alloc):
        alloc.allocate((100,), np.float32, DeviceKind.CPU)
        alloc.allocate((50,), np.float16, DeviceKind.CPU)
        assert alloc.bytes_requested == 400 + 100
