"""Arena-backed physical page storage (the zero-copy hot path).

The paper sizes pages at 4 MiB precisely to "fully utilize the PCIe
bandwidth" (Section 5); squandering that on Python ``bytes`` round-trips
is the throughput bound once compute/IO overlap (ROADMAP item 2). Every
backend here therefore stores its pages in **one contiguous arena** —
an anonymous ``mmap``, a named ``multiprocessing.shared_memory`` segment,
or a preallocated arena file — and speaks the buffer-protocol storage API
(:class:`repro.protocols.PoolBackend`):

- ``readinto(index, offset, buf)`` / ``write_from(index, offset, buf)``
  move bytes directly between the arena and a caller-supplied buffer,
  and ``preadv(requests)`` / ``pwritev(requests)`` move a list of
  ``(index, offset, buf)`` segments as one I/O request;
- RAM-like arenas additionally expose ``view(index, offset, nbytes)``, a
  writable ``memoryview`` window, so an arena→arena page move is a single
  slice copy — one C-level ``memcpy`` that releases the GIL;
- because pages are physically consecutive, a *run* of pages is one call:
  ``PageAllocator.move_pages`` coalesces a MoveGroup into O(runs) copies.

Named shared-memory arenas (``shared=True``) are **process-shareable**:
another process attaches them by name (the cluster transport's per-rank
arenas), or by the :meth:`~ArenaPoolBackend.descriptor` they export (the
:class:`~repro.runtime.ioproc.PageCopyService` that the benchmark's
ladder measures).

This module is the only one that names, creates, attaches or unlinks a
``multiprocessing.shared_memory`` segment: every shared arena is an
:class:`ArenaPoolBackend`; whoever maps someone else's arena goes
through :func:`attach_segment`.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import secrets
import tempfile
import threading

from repro.errors import AllocationError

#: The descriptor kind of a named shared-memory arena.
SHM_DESCRIPTOR = "shm"

#: Serialises creates and attaches in this process against the attach
#: path's temporary ``resource_tracker.register`` override.
_TRACKER_LOCK = threading.Lock()


def arena_session_token() -> str:
    """A random scope token for an arena no other process needs to name."""
    return secrets.token_hex(4)


def session_token(workdir: str) -> str:
    """The run-stable scope token every process of one run derives."""
    return "rp" + hashlib.sha1(workdir.encode("utf-8")).hexdigest()[:8]


def scoped_segment_name(session: str, *parts) -> str:
    """``session`` + parts (generation, rank, tier ...): concurrent runs
    never collide and one ``ls /dev/shm`` groups a run's segments."""
    return session + "".join(str(part) for part in parts)


def segment_names(session: str) -> list[str]:
    """Names under ``/dev/shm`` that carry ``session``'s token."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(session))


def attach_segment(name: str):
    """Map a segment someone else created; the caller owes ``close()``.

    The resource-tracker policy, stated once: a name is registered by
    its creator and unregistered by whoever unlinks it, never by an
    attacher. Python < 3.13 registers on attach too, and spawned
    children share the parent's tracker, so that entry (or removing it)
    would fight the owner's: registration is suppressed for the attach.
    """
    from multiprocessing import resource_tracker, shared_memory

    with _TRACKER_LOCK:
        register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register


def unlink_segment(name: str) -> None:
    """Remove a segment whose creator cannot (SIGKILLed); gone is fine."""
    try:
        stale = attach_segment(name)
    except FileNotFoundError:
        return
    stale.close()
    try:
        stale.unlink()
    except FileNotFoundError:
        pass


class SegmentLoopIO:
    """The vectored pair as a loop of the backend's own per-segment copy:
    one request, and only the segments' payload bytes move."""

    def preadv(self, requests) -> None:
        for index, offset, buf in requests:
            self.readinto(index, offset, buf)

    def pwritev(self, requests) -> None:
        for index, offset, buf in requests:
            self.write_from(index, offset, buf)


class ArenaPoolBackend(SegmentLoopIO):
    """Pages stored consecutively in one RAM arena.

    ``shared=False`` (the default) backs the arena with an anonymous
    ``mmap`` — private to this process, reclaimed on close, lazily
    faulted so huge pools cost only virtual address space until written.
    ``shared=True`` backs it with a named
    ``multiprocessing.shared_memory`` segment so worker *processes* can
    attach the same bytes by name (:meth:`descriptor`); the creating
    process owns the segment and unlinks it on :meth:`close`.
    """

    def __init__(
        self,
        num_pages: int,
        page_bytes: int,
        shared: bool = False,
        name: str | None = None,
    ):
        if num_pages <= 0 or page_bytes <= 0:
            raise AllocationError("arena needs a positive page count and size")
        self.num_pages = num_pages
        self.page_bytes = page_bytes
        self._nbytes = num_pages * page_bytes
        self._segment = None
        self._mmap = None
        if shared:
            # Deferred import: multiprocessing pulls in a lot; plain RAM
            # pools never need it.
            from multiprocessing import shared_memory

            if name is None:
                name = scoped_segment_name(arena_session_token(), "arena")
            with _TRACKER_LOCK:
                self._segment = shared_memory.SharedMemory(
                    create=True, size=self._nbytes, name=name
                )
            self.name = self._segment.name
            self._buf = memoryview(self._segment.buf)
        else:
            self._mmap = mmap.mmap(-1, self._nbytes)
            self.name = None
            self._buf = memoryview(self._mmap)
        self._closed = False

    # ------------------------------------------------------------------
    # Buffer-protocol storage API
    # ------------------------------------------------------------------
    def view(self, index: int, offset: int, nbytes: int) -> memoryview:
        start = index * self.page_bytes + offset
        if start < 0 or start + nbytes > self._nbytes:
            raise AllocationError(
                f"arena view [{start}, {start + nbytes}) outside "
                f"{self._nbytes}-byte arena"
            )
        return self._buf[start:start + nbytes]

    def readinto(self, index: int, offset: int, buf) -> int:
        target = memoryview(buf).cast("B")
        target[:] = self.view(index, offset, len(target))
        return len(target)

    def write_from(self, index: int, offset: int, buf) -> int:
        source = memoryview(buf).cast("B")
        self.view(index, offset, len(source))[:] = source
        return len(source)

    # ------------------------------------------------------------------
    # Process sharing
    # ------------------------------------------------------------------
    def descriptor(self) -> tuple[str, str] | None:
        """(kind, address) for cross-process attach; None when private."""
        if self.name is None:
            return None
        return (SHM_DESCRIPTOR, self.name)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._buf.release()
        if self._segment is not None:
            self._segment.close()
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass
        if self._mmap is not None:
            self._mmap.close()


def pread_full(fd: int, offset: int, view: memoryview) -> None:
    """Fill ``view`` from ``fd`` at ``offset``; a short read is an error.

    Looped: one ``preadv`` may return fewer bytes than asked even on a
    regular file. Reads land straight in ``view``, with no ``bytes``
    object between.
    """
    done = 0
    while done < len(view):
        got = os.preadv(fd, [view[done:]], offset + done)
        if not got:
            raise AllocationError(
                f"short read: [{offset}, {offset + len(view)}) satisfied "
                f"only {done} bytes"
            )
        done += got


def pwrite_full(fd: int, offset: int, view: memoryview) -> None:
    done = 0
    while done < len(view):
        done += os.pwrite(fd, view[done:], offset + done)


class FilePoolBackend(SegmentLoopIO):
    """Pages stored consecutively in one preallocated arena file.

    This is the reproduction's SSD tier: bytes land in a real file, so
    SSD-path code is exercised end to end. Every ``readinto``/
    ``write_from`` is one positioned ``preadv``/``pwrite`` between the
    file and the caller's buffer, so pages on this tier are held by the
    file (and the kernel's page cache), never by the process's resident
    set. Both are looped, because a single call may legally move fewer
    bytes than asked; a read that hits end of file is an error, never
    silent truncation.

    Deliberately no ``view``: file tiers take the ``readinto``/
    ``write_from`` path so interposing wrappers (fault injection,
    accounting) observe every I/O.
    """

    def __init__(self, num_pages: int, page_bytes: int, path: str | None = None):
        self.num_pages = num_pages
        self.page_bytes = page_bytes
        self._nbytes = num_pages * page_bytes
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-ssd-", suffix=".bin")
            os.close(fd)
            self._owns_file = True
        else:
            self._owns_file = False
        self._path = path
        with open(self._path, "wb") as f:
            f.truncate(self._nbytes)
        self._fd = os.open(self._path, os.O_RDWR)
        self._closed = False

    @property
    def path(self) -> str:
        return self._path

    def _check_range(self, start: int, nbytes: int) -> None:
        if start < 0 or start + nbytes > self._nbytes:
            raise AllocationError(
                f"file-arena access [{start}, {start + nbytes}) outside "
                f"{self._nbytes}-byte arena"
            )

    # ------------------------------------------------------------------
    # Buffer-protocol storage API
    # ------------------------------------------------------------------
    def readinto(self, index: int, offset: int, buf) -> int:
        target = memoryview(buf).cast("B")
        start = index * self.page_bytes + offset
        self._check_range(start, len(target))
        pread_full(self._fd, start, target)
        return len(target)

    def write_from(self, index: int, offset: int, buf) -> int:
        source = memoryview(buf).cast("B")
        start = index * self.page_bytes + offset
        self._check_range(start, len(source))
        pwrite_full(self._fd, start, source)
        return len(source)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        os.close(self._fd)
        if self._owns_file and os.path.exists(self._path):
            os.unlink(self._path)
