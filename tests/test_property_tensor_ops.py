"""Property-based test: paged tensors stay byte-faithful under random ops.

A shadow numpy copy tracks what every tensor should contain while random
sequences of write / move / merge / release run against the real paged
memory (including the file-backed SSD tier). Any divergence means a bug
in the slot arithmetic, the move path or merge's repacking.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutOfMemoryError
from repro.hardware.device import DeviceKind
from repro.memory import DevicePool, PageAllocator
from repro.units import KiB

PAGE = 8 * KiB


ops = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "write", "move", "merge", "release"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=4,
    max_size=40,
)


@settings(max_examples=30, deadline=None)
@given(ops=ops)
def test_random_op_sequences_preserve_data(ops, tmp_path_factory):
    ssd_path = str(tmp_path_factory.mktemp("ssd") / "tier.bin")
    pools = {
        DeviceKind.GPU: DevicePool(DeviceKind.GPU, 32 * PAGE, page_bytes=PAGE),
        DeviceKind.CPU: DevicePool(DeviceKind.CPU, 64 * PAGE, page_bytes=PAGE),
        DeviceKind.SSD: DevicePool(
            DeviceKind.SSD, 64 * PAGE, page_bytes=PAGE,
            backend="file", file_path=ssd_path,
        ),
    }
    allocator = PageAllocator(pools)
    rng = np.random.default_rng(0)
    live: list[tuple[object, np.ndarray]] = []  # (tensor, shadow)
    devices = [DeviceKind.GPU, DeviceKind.CPU, DeviceKind.SSD]

    try:
        for op, arg in ops:
            if op == "alloc":
                nbytes = 1 + arg % (3 * PAGE)
                try:
                    tensor = allocator.allocate(
                        (nbytes,), np.uint8, devices[arg % 3]
                    )
                except OutOfMemoryError:
                    continue
                shadow = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
                tensor.write_array(shadow)
                live.append((tensor, shadow))
            elif not live:
                continue
            elif op == "write":
                tensor, _ = live[arg % len(live)]
                shadow = rng.integers(0, 256, size=tensor.nbytes, dtype=np.uint8)
                tensor.write_array(shadow)
                live[arg % len(live)] = (tensor, shadow)
            elif op == "move":
                tensor, _ = live[arg % len(live)]
                try:
                    allocator.move_pages([tensor], devices[arg % 3])
                except OutOfMemoryError:
                    continue
            elif op == "merge":
                tensor, _ = live[arg % len(live)]
                if tensor.device_index >= 0:
                    try:
                        tensor.merge()
                    except OutOfMemoryError:
                        continue
            elif op == "release":
                tensor, _ = live.pop(arg % len(live))
                tensor.release()

            # Every live tensor must read back its shadow exactly.
            for tensor, shadow in live:
                np.testing.assert_array_equal(tensor.read_array(), shadow)

        for tensor, _ in live:
            tensor.release()
        for pool in pools.values():
            assert pool.pages_in_use == 0
    finally:
        allocator.close()
