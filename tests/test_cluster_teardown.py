"""A cluster run closes every OS handle it opened before it returns.

This module runs nothing else, so the conftest leak check at its
teardown sees exactly what one ``run_cluster`` call left behind. A child
``Process`` object that is reaped but never closed holds its sentinel
pipe until the cyclic garbage collector happens to run, so the test
also counts descriptors itself with the collector off.
"""

import gc
import os
from multiprocessing import resource_tracker

from repro.cluster import ClusterConfig, run_cluster
from repro.telemetry import Telemetry


def _open_fds() -> dict[int, str]:
    found = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            found[int(name)] = os.readlink(f"/proc/self/fd/{name}")
        except OSError:
            continue  # the listing's own descriptor, gone by now
    return found


def test_run_cluster_with_telemetry_leaves_no_fd_behind(tmp_path):
    before = _open_fds()
    gc.disable()
    try:
        report = run_cluster(
            ClusterConfig(world_size=1, steps=2, checkpoint_every=1),
            str(tmp_path), telemetry=Telemetry(),
        )
        # The resource tracker's pipe lives as long as the process.
        tracker_fd = resource_tracker._resource_tracker._fd
        left = {fd: target for fd, target in _open_fds().items()
                if fd not in before and fd != tracker_fd}
    finally:
        gc.enable()
    assert report.complete and report.unclean_exits == []
    assert not left
