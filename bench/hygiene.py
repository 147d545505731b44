"""Run hygiene: one scratch root, no surviving child, no leaked segment."""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile

SHM_DIR = "/dev/shm"

#: AF_UNIX socket paths are limited to ~108 bytes and the cluster puts its
#: rendezvous socket under ``tempfile.gettempdir()``.
_MAX_TMP_PATH = 70


def shm_names() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def leaked_shm(before: set[str]) -> list[str]:
    """Names new since ``before`` that no live process maps any more.

    A segment another benchmark pass is still using (passes may run side
    by side) is mapped by that pass's processes and is not ours to
    report, let alone unlink.
    """
    fresh = shm_names() - before
    if not fresh:
        return []
    mapped = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/maps", encoding="utf-8") as handle:
                for line in handle:
                    if SHM_DIR in line:
                        mapped.add(os.path.basename(line.split()[-1]))
        except OSError:
            continue  # exited, or not ours to read
    return sorted(fresh - mapped)


def _child_pids() -> list[int]:
    """Direct children of this process still present in ``/proc``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[1].split()
        state, ppid = fields[0], int(fields[1])
        if ppid == me and state != "Z":
            found.append(int(entry))
    return found


class Sandbox:
    """Scratch directory + leak checks around one workload pass.

    Every temp file the program makes (``tempfile`` defaults: SSD arena
    files, cluster and fleet workdirs, the rendezvous socket) lands under
    one directory inside the checkout, removed on exit. Leaving the
    sandbox also checks that no child process survived and that
    ``/dev/shm`` holds no segment the pass created; what it finds is in
    ``problems`` / ``leaked_segments`` and is cleaned up.
    """

    def __init__(self, root: str):
        self.root = root
        self.workdir = os.path.join(root, str(os.getpid()))
        self.problems: list[str] = []
        self.leaked_segments: list[str] = []
        self._saved_tempdir = None
        self._saved_env = None
        self._shm_before: set[str] = set()

    def __enter__(self) -> "Sandbox":
        os.makedirs(self.workdir, exist_ok=True)
        self._saved_tempdir = tempfile.tempdir
        self._saved_env = os.environ.get("TMPDIR")
        os.environ["TMPDIR"] = self.workdir  # spawned children resolve it too
        tempfile.tempdir = (
            self.workdir if len(self.workdir) <= _MAX_TMP_PATH
            else os.path.relpath(self.workdir)
        )
        self._shm_before = shm_names()
        return self

    def __exit__(self, *exc_info) -> None:
        self._reap_children()
        self.leaked_segments = leaked_shm(self._shm_before)
        for name in self.leaked_segments:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except OSError:
                pass
        tempfile.tempdir = self._saved_tempdir
        if self._saved_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = self._saved_env
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(self.root)  # only when no concurrent run shares it
        except OSError:
            pass

    def _reap_children(self) -> None:
        for process in multiprocessing.active_children():
            process.join(timeout=5.0)
        # The shared-memory resource tracker is a helper this process
        # started; stop it and wait for it like any other child.
        from multiprocessing import resource_tracker

        tracker = getattr(resource_tracker, "_resource_tracker", None)
        stop = getattr(tracker, "_stop", None)
        if stop is not None:
            stop()
        survivors = _child_pids()
        for pid in survivors:
            self.problems.append(f"child process {pid} survived the run")
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
