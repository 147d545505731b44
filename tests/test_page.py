"""The Page abstraction: slots, the two-tensor invariant, movement."""

import numpy as np
import pytest

from repro.errors import AllocationError, OutOfMemoryError, PageStateError
from repro.hardware.device import DeviceKind
from repro.memory import (
    DEFAULT_PAGE_BYTES,
    DevicePool,
    Page,
    PageAllocator,
    PageState,
)
from repro.units import MiB


@pytest.fixture
def pools():
    gpu = DevicePool(DeviceKind.GPU, 8 * MiB, page_bytes=MiB)
    cpu = DevicePool(DeviceKind.CPU, 8 * MiB, page_bytes=MiB)
    yield gpu, cpu
    gpu.close()
    cpu.close()


@pytest.fixture
def alloc(pools):
    gpu, cpu = pools
    return PageAllocator({DeviceKind.GPU: gpu, DeviceKind.CPU: cpu})


class TestPageSlots:
    def test_default_page_size_is_4mib(self):
        assert DEFAULT_PAGE_BYTES == 4 * MiB

    def test_allocate_returns_sequential_offsets(self):
        page = Page(total_bytes=100)
        assert page.allocate(40, tensor_id=1) == 0
        assert page.allocate(30, tensor_id=2) == 40
        assert page.available_bytes == 30

    def test_at_most_two_tensors(self):
        page = Page(total_bytes=100)
        page.allocate(10, 1)
        page.allocate(10, 2)
        with pytest.raises(AllocationError):
            page.allocate(10, 3)

    def test_same_tensor_twice_rejected(self):
        page = Page(total_bytes=100)
        page.allocate(10, 1)
        with pytest.raises(AllocationError):
            page.allocate(10, 1)

    def test_overallocation_rejected(self):
        page = Page(total_bytes=100)
        with pytest.raises(AllocationError):
            page.allocate(101, 1)

    def test_release_frees_slot(self):
        page = Page(total_bytes=100)
        page.allocate(60, 1)
        page.release(1)
        assert page.is_empty
        assert page.available_bytes == 100

    def test_release_unknown_tensor(self):
        page = Page(total_bytes=100)
        with pytest.raises(AllocationError):
            page.release(42)

    def test_freed_head_space_not_reused_until_empty(self):
        """Pages never compact in place: tail allocation only."""
        page = Page(total_bytes=100)
        page.allocate(60, 1)
        page.allocate(40, 2)
        page.release(1)
        # 60 head bytes are free but unusable; tail is full.
        assert page.available_bytes == 0
        page.release(2)
        assert page.available_bytes == 100

    def test_slot_of_reports_offset(self):
        page = Page(total_bytes=100)
        page.allocate(30, 7)
        page.allocate(20, 8)
        assert page.slot_of(7) == (0, 30)
        assert page.slot_of(8) == (30, 20)

    def test_zero_allocation_rejected(self):
        page = Page(total_bytes=100)
        with pytest.raises(AllocationError):
            page.allocate(0, 1)


class TestPagePlacement:
    def test_detached_page_has_no_device(self):
        page = Page()
        assert page.device_index == -1
        assert not page.has_storage

    def test_acquired_page_reports_device(self, pools):
        gpu, _ = pools
        page = gpu.acquire()
        assert page.device_index == int(DeviceKind.GPU)
        assert page.state == PageState.RESIDENT

    def test_move_changes_device_and_preserves_bytes(self, pools, alloc):
        gpu, cpu = pools
        tensor = alloc.allocate((100,), np.uint8, DeviceKind.CPU)
        (page,) = tensor.page_list
        payload = np.random.default_rng(0).bytes(100)
        page.write(0, payload)
        alloc.move_pages([tensor], DeviceKind.GPU)
        # The page object survives the move; only its storage is re-homed.
        assert tensor.page_list == [page]
        assert page.device_index == int(DeviceKind.GPU)
        assert page.read(0, 100) == payload
        assert cpu.pages_in_use == 0
        assert gpu.pages_in_use == 1

    def test_move_to_same_pool_is_noop(self, pools, alloc):
        gpu, _ = pools
        tensor = alloc.allocate((100,), np.uint8, DeviceKind.GPU)
        storage = tensor.page_list[0].storage
        report = alloc.move_pages([tensor], DeviceKind.GPU)
        assert report.pages_moved == 0 and report.copy_calls == 0
        assert tensor.page_list[0].storage is storage
        assert gpu.pages_in_use == 1

    def test_move_fails_cleanly_when_target_full(self, pools, alloc):
        gpu, _ = pools
        fillers = [gpu.acquire() for _ in range(gpu.num_pages)]
        tensor = alloc.allocate((100,), np.uint8, DeviceKind.CPU)
        (page,) = tensor.page_list
        with pytest.raises(OutOfMemoryError):
            alloc.move_pages([tensor], DeviceKind.GPU)
        # Source residency is unchanged after the failed move.
        assert page.device_index == int(DeviceKind.CPU)
        assert page.state == PageState.RESIDENT
        for filler in fillers:
            gpu.release(filler)

    def test_out_of_range_access_rejected(self, pools):
        gpu, _ = pools
        page = gpu.acquire()
        with pytest.raises(AllocationError):
            page.read(0, page.total_bytes + 1)

    def test_release_nonempty_page_rejected(self, pools):
        gpu, _ = pools
        page = gpu.acquire()
        page.allocate(10, 1)
        with pytest.raises(PageStateError):
            gpu.release(page)
        page.release(1)
        gpu.release(page)
