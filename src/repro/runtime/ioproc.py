"""Out-of-process page copies between named shared arenas.

:class:`PageCopyService` runs byte copies in a dedicated **worker
process** that attaches ``multiprocessing.shared_memory`` arenas by the
descriptors they export
(:meth:`repro.memory.arena.ArenaPoolBackend.descriptor`; naming and
attaching live in :mod:`repro.memory.arena`). While the parent blocks on
the worker's ack it holds no GIL.

The engine does not use it: every page it moves goes through the
in-process data plane (``PageAllocator.move_pages`` and
``DevicePool.pwritev``). The service stays only because the benchmark's
ladder measures its round trip and copy bandwidth (the ``ioproc.*``
rungs); it goes when a benchmark change drops those rungs.

The worker is started with the ``spawn`` context: forking a
multi-threaded process is undefined behaviour. The worker function lives
at module level so spawn can import it.
"""

from __future__ import annotations

import multiprocessing
import threading

from repro.errors import TransientIOError, join_or_raise
from repro.memory.arena import SHM_DESCRIPTOR, attach_segment


def _attach_view(desc, segments):
    """Resolve a descriptor to the worker's view of its arena, caching;
    ``_copy_worker``'s shutdown path closes what was attached."""
    kind, address = desc
    if kind != SHM_DESCRIPTOR:
        raise ValueError(f"unknown arena descriptor kind {kind!r}")
    if address not in segments:
        segments[address] = attach_segment(address)
    return segments[address].buf


def _copy_worker(conn) -> None:
    """Worker-process main loop: attach arenas, execute copy batches."""
    segments: dict = {}
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
                src = _attach_view(src_desc, segments)
                dst = _attach_view(dst_desc, segments)
                for src_off, dst_off, nbytes in runs:
                    dst[dst_off:dst_off + nbytes] = src[src_off:src_off + nbytes]
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
        conn.close()


class PageCopyService:
    """A copy worker process plus the parent-side RPC to drive it.

    ``copy`` is synchronous: the parent blocks in an OS pipe read with
    the GIL released while the worker does the memcpy.
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
        # onto the single pipe.
        self._lock = threading.Lock()
        self._closed = False

    @property
    def alive(self) -> bool:
        return not self._closed and self._proc.is_alive()

    def _roundtrip(self, message) -> tuple:
        """Send one batch, await its ack; caller holds ``_lock``.

        The poll loop bounds every wait: if the worker process dies the
        next 1 s tick notices and raises instead of blocking forever.
        While this thread sits in ``poll`` it holds no GIL.
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
        join_or_raise(self._proc, 5.0, "stuck in a copy?")

    def __enter__(self) -> "PageCopyService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
