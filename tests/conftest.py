"""Every test module leaves the process as it found it.

After each module's teardown, the autouse ``no_leaks`` fixture checks
that the module left no new live thread, no live ``multiprocessing``
child, no new ``/dev/shm`` entry and no new open file descriptor. A
thread, child or segment may still be finishing when the last test
returns, so the check polls for a short grace period before it fails.
"""

import os
import threading
import time
from multiprocessing import active_children, resource_tracker

import pytest

#: How long a module's threads, children and segments get to go away.
GRACE_S = 5.0


def _fds() -> set[tuple[int, str]]:
    """Open descriptors as (fd, target); the listing's own fd is gone by
    the time it is read back, so it drops out."""
    found = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            found.add((int(name), os.readlink(f"/proc/self/fd/{name}")))
        except OSError:
            continue
    return found


def _shm() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _snapshot() -> dict:
    return {"threads": set(threading.enumerate()), "shm": _shm(),
            "fds": _fds() if os.path.isdir("/proc/self/fd") else set()}


def _leaks(before: dict) -> dict:
    # The resource tracker's pipe lives as long as the process: it is
    # opened by the first module that shares memory, never closed.
    tracker_fd = getattr(resource_tracker._resource_tracker, "_fd", None)
    fds = _fds() - before["fds"] if before["fds"] else set()
    leaks = {
        "threads": sorted(thread.name for thread in threading.enumerate()
                          if thread.is_alive()
                          and thread not in before["threads"]),
        "children": sorted(str(child) for child in active_children()),
        "/dev/shm": sorted(_shm() - before["shm"]),
        "fds": sorted(f"{fd} -> {target}" for fd, target in fds
                      if fd != tracker_fd),
    }
    return {kind: found for kind, found in leaks.items() if found}


@pytest.fixture(autouse=True, scope="module")
def no_leaks():
    before = _snapshot()
    yield
    deadline = time.monotonic() + GRACE_S
    while (leaks := _leaks(before)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not leaks, f"the module left behind: {leaks}"
