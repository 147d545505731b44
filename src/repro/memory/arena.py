"""Arena-backed physical page storage (the zero-copy hot path).

The paper sizes pages at 4 MiB precisely to "fully utilize the PCIe
bandwidth" (Section 5); squandering that on Python ``bytes`` round-trips
is the throughput bound once compute/IO overlap (ROADMAP item 2). Every
backend here therefore stores its pages in **one contiguous arena** —
an anonymous ``mmap``, a named ``multiprocessing.shared_memory`` segment,
or a preallocated arena file — and speaks the buffer-protocol storage API
(:class:`repro.protocols.PoolBackend`):

- ``readinto(index, offset, buf)`` / ``write_from(index, offset, buf)``
  move bytes directly between the arena and a caller-supplied buffer;
- RAM-like arenas additionally expose ``view(index, offset, nbytes)``, a
  writable ``memoryview`` window, so an arena→arena page move is a single
  slice copy — one C-level ``memcpy`` that releases the GIL;
- because pages are physically consecutive, a *run* of pages is one call:
  ``PageAllocator.move_pages`` coalesces a MoveGroup into O(runs) copies.

Named shared-memory arenas (``shared=True``) plus arena files are also
**process-shareable**: they export a :func:`descriptor` that the
:class:`~repro.runtime.ioproc.PageCopyService` worker process attaches by
name, so prefetch/writeback copies run outside this process's GIL
entirely.
"""

from __future__ import annotations

import mmap
import os
import secrets
import tempfile

from repro.errors import AllocationError

#: Descriptor kinds understood by the page copy service.
SHM_DESCRIPTOR = "shm"
FILE_DESCRIPTOR = "file"


def arena_session_token() -> str:
    """A short per-arena scope token (the transport naming discipline)."""
    return secrets.token_hex(4)


class ArenaPoolBackend:
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

            from repro.cluster.transport import scoped_segment_name

            if name is None:
                name = scoped_segment_name(arena_session_token(), "arena")
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


class FilePoolBackend:
    """Pages stored consecutively in one preallocated arena file.

    This is the reproduction's SSD tier: bytes land in a real file, so
    SSD-path code is exercised end to end. The file is mapped once at
    construction and every ``readinto``/``write_from`` is a slice copy
    into the mapping — no per-call ``seek``+``read`` syscall pair, and a
    run of consecutive pages is one copy. Should the mapping fail (some
    filesystems refuse ``mmap``), the backend degrades to positioned
    ``os.pread``/``os.pwrite`` — looped, because a single ``pread`` may
    legally return fewer bytes than asked; the loop asserts the full
    page range is satisfied (short reads are an error, never silent
    truncation).

    Deliberately no ``view``: file tiers take the ``readinto``/
    ``write_from`` path so interposing wrappers (fault injection,
    accounting) observe every I/O.
    """

    def __init__(
        self,
        num_pages: int,
        page_bytes: int,
        path: str | None = None,
        use_mmap: bool = True,
    ):
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
        self._mmap = None
        self._buf = None
        if use_mmap:
            try:
                self._mmap = mmap.mmap(self._fd, self._nbytes)
                self._buf = memoryview(self._mmap)
            except (OSError, ValueError):
                self._mmap = None
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
        if self._buf is not None:
            target[:] = self._buf[start:start + len(target)]
            return len(target)
        # pread fallback: loop until the range is satisfied — a single
        # read may return fewer bytes than asked even on a regular file.
        done = 0
        while done < len(target):
            chunk = os.pread(self._fd, len(target) - done, start + done)
            if not chunk:
                raise AllocationError(
                    f"short read: [{start}, {start + len(target)}) satisfied "
                    f"only {done} bytes"
                )
            target[done:done + len(chunk)] = chunk
            done += len(chunk)
        return done

    def write_from(self, index: int, offset: int, buf) -> int:
        source = memoryview(buf).cast("B")
        start = index * self.page_bytes + offset
        self._check_range(start, len(source))
        if self._buf is not None:
            self._buf[start:start + len(source)] = source
            return len(source)
        done = 0
        while done < len(source):
            done += os.pwrite(self._fd, source[done:], start + done)
        return done

    # ------------------------------------------------------------------
    # Process sharing
    # ------------------------------------------------------------------
    def descriptor(self) -> tuple[str, str]:
        """(kind, path): the copy service opens the arena file itself."""
        return (FILE_DESCRIPTOR, self._path)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._buf is not None:
            self._buf.release()
        if self._mmap is not None:
            self._mmap.close()
        os.close(self._fd)
        if self._owns_file and os.path.exists(self._path):
            os.unlink(self._path)
