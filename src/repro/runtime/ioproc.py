"""Out-of-process page copies over named shared arenas.

The GIL is the last serialization point on the page hot path: threads
overlap compute with I/O *waits* (PR 5), but the byte copies themselves
still contend for the interpreter. :class:`PageCopyService` runs those
copies in a dedicated **worker process** that attaches the pools' named
arenas — ``multiprocessing.shared_memory`` segments for RAM tiers, the
preallocated arena file for the SSD tier — by the descriptors the
backends export (:meth:`repro.memory.pool.DevicePool.backend_descriptor`;
naming and attaching live in :mod:`repro.memory.arena`). While the
parent blocks on the worker's ack it holds no GIL, so the compute thread
runs at full speed.

Division of labour with :mod:`repro.runtime.pipeline`: the
:class:`~repro.runtime.pipeline.PrefetchWorker` and
:class:`~repro.runtime.pipeline.WritebackQueue` remain the *control
plane* — they share condition variables and iteration state with the
engine, which only threads can do cheaply — and hand the *data plane*
(the physical gather/scatter) to this service whenever both endpoints
export a descriptor. A fault-injection wrapper deliberately exports
none, so chaos tests keep intercepting every byte in-process.

The worker is started with the ``spawn`` context: the engine runs
prefetch/writeback threads, and forking a multi-threaded process is
undefined behaviour. The worker function lives at module level so spawn
can import it.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

from repro.errors import TransientIOError, join_or_raise
from repro.memory.arena import (
    FILE_DESCRIPTOR,
    SHM_DESCRIPTOR,
    ArenaPoolBackend,
    attach_segment,
    pread_full,
    pwrite_full,
)


def _attach_view(desc, segments, files):
    """Resolve a descriptor to (kind, handle) in the worker, caching;
    ``_copy_worker``'s shutdown path closes what was attached."""
    kind, address = desc
    if kind == SHM_DESCRIPTOR:
        if address not in segments:
            segments[address] = attach_segment(address)
        return SHM_DESCRIPTOR, segments[address].buf
    if kind == FILE_DESCRIPTOR:
        if address not in files:
            files[address] = os.open(address, os.O_RDWR)
        return FILE_DESCRIPTOR, files[address]
    raise ValueError(f"unknown arena descriptor kind {kind!r}")


def _copy_range(src, dst, src_off: int, dst_off: int, nbytes: int) -> None:
    src_kind, src_handle = src
    dst_kind, dst_handle = dst
    if src_kind == SHM_DESCRIPTOR and dst_kind == SHM_DESCRIPTOR:
        dst_handle[dst_off:dst_off + nbytes] = (
            src_handle[src_off:src_off + nbytes]
        )
    elif src_kind == SHM_DESCRIPTOR:
        pwrite_full(dst_handle, dst_off, src_handle[src_off:src_off + nbytes])
    elif dst_kind == SHM_DESCRIPTOR:
        pread_full(src_handle, src_off, dst_handle[dst_off:dst_off + nbytes])
    else:
        staging = bytearray(nbytes)
        view = memoryview(staging)
        pread_full(src_handle, src_off, view)
        pwrite_full(dst_handle, dst_off, view)


def _copy_worker(conn) -> None:
    """Worker-process main loop: attach arenas, execute copy batches."""
    segments: dict = {}
    files: dict = {}
    try:
        while True:
            # Bounded block: wake periodically so a vanished parent (pipe
            # EOF surfaces via recv below) can never wedge the worker.
            if not conn.poll(1.0):
                continue
            message = conn.recv()
            if message is None:
                break
            src_desc, dst_desc, runs = message
            try:
                src = _attach_view(src_desc, segments, files)
                dst = _attach_view(dst_desc, segments, files)
                for src_off, dst_off, nbytes in runs:
                    _copy_range(src, dst, src_off, dst_off, nbytes)
            except Exception as exc:  # report, keep serving
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("ok", len(runs)))
    except (EOFError, OSError):
        pass  # parent went away; exit quietly
    finally:
        for segment in segments.values():
            try:
                segment.close()
            except OSError:
                pass
        for fd in files.values():
            try:
                os.close(fd)
            except OSError:
                pass
        conn.close()


class PageCopyService:
    """A copy worker process plus the parent-side RPC to drive it.

    ``copy`` is synchronous — the caller's move already happens on an
    I/O thread (prefetch worker / writeback queue), so blocking here
    *is* the overlap: the parent blocks in an OS pipe read with the GIL
    released while the worker does the memcpy/file I/O.
    """

    def __init__(self):
        ctx = multiprocessing.get_context("spawn")
        self._parent, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_copy_worker, args=(child,), daemon=True,
            name="repro-page-copy",
        )
        self._proc.start()
        child.close()
        # One outstanding batch at a time; the lock serializes callers
        # (prefetch thread vs writeback threads) onto the single pipe.
        self._lock = threading.Lock()
        self._staging: ArenaPoolBackend | None = None
        self._closed = False

    @property
    def alive(self) -> bool:
        return not self._closed and self._proc.is_alive()

    def _roundtrip(self, message) -> tuple:
        """Send one batch, await its ack; caller holds ``_lock``.

        The poll loop bounds every wait: if the worker process dies the
        next 1 s tick notices and raises instead of blocking forever.
        While this thread sits in ``poll`` it holds no GIL, so the
        compute thread runs at full speed — that wait IS the overlap.
        """
        self._parent.send(message)
        try:
            while not self._parent.poll(1.0):
                if not self._proc.is_alive():
                    raise TransientIOError(
                        "page copy worker died before acknowledging"
                    )
            return self._parent.recv()
        except (EOFError, OSError) as exc:
            raise TransientIOError(
                f"page copy worker died mid-copy: {exc}"
            ) from exc

    def copy(self, src_desc, dst_desc, runs) -> None:
        """Execute ``[(src_off, dst_off, nbytes), ...]`` in the worker."""
        with self._lock:
            if self._closed:
                raise TransientIOError("page copy service is closed")
            status, detail = self._roundtrip(
                (tuple(src_desc), tuple(dst_desc), list(runs))
            )
        if status != "ok":
            raise TransientIOError(f"page copy worker failed: {detail}")

    # ------------------------------------------------------------------
    # Writeback staging: scatter a parent-side payload into an arena
    # ------------------------------------------------------------------
    def _staging_view(self, nbytes: int) -> memoryview:
        """The staging arena's first ``nbytes`` (regrown when too small)."""
        if self._staging is None or self._staging.page_bytes < nbytes:
            if self._staging is not None:
                self._staging.close()
            self._staging = ArenaPoolBackend(1, max(nbytes, 1), shared=True)
        return self._staging.view(0, 0, nbytes)

    def scatter(self, dst_desc, requests) -> None:
        """Stage ``[(dst_off, buf), ...]`` and scatter it into ``dst_desc``.

        The parent pays one GIL-releasing memcpy per segment into the
        staging segment; the worker does the per-page scatter against the
        destination arena, in one round trip.
        """
        sources = [memoryview(buf).cast("B") for _, buf in requests]
        runs, cursor = [], 0
        for (dst_off, _), source in zip(requests, sources):
            runs.append((cursor, dst_off, len(source)))
            cursor += len(source)
        with self._lock:
            if self._closed:
                raise TransientIOError("page copy service is closed")
            staging = self._staging_view(cursor)
            for (staged, _, nbytes), source in zip(runs, sources):
                staging[staged:staged + nbytes] = source
            status, detail = self._roundtrip(
                (self._staging.descriptor(), tuple(dst_desc), list(runs))
            )
        if status != "ok":
            raise TransientIOError(f"page copy worker failed: {detail}")

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._parent.send(None)
            except (BrokenPipeError, OSError):
                pass
        self._parent.close()
        if self._staging is not None:
            self._staging.close()
            self._staging = None
        join_or_raise(self._proc, 5.0, "stuck in a copy?")

    def __enter__(self) -> "PageCopyService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
