"""In-memory spans around calls into the layers, for the traced pass.

The traced pass wraps public callables of ``repro`` (``PageAllocator.
move_pages``, ``DevicePool.acquire_storage_run``, ...) from *outside*: a
:class:`Tracer` swaps the attribute for a timing wrapper, records one span
per call (name, start, end, parent, thread, run id) in a list, and puts
the original back in :meth:`Tracer.remove_wrappers`. Nothing is written
while the benchmark runs; :meth:`Tracer.chrome_trace` renders the spans
when it ends.

Self time follows the choosing-metrics guide: a span's duration minus the
part of that interval its child spans (same thread) cover.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager


class Span:
    """One timed call. ``parent`` indexes ``Tracer.spans`` (-1 = root)."""

    __slots__ = ("name", "start", "end", "parent", "thread", "child_time")

    def __init__(self, name: str, start: float, parent: int, thread: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return max(0.0, self.duration - self.child_time)


class Tracer:
    """Span recorder plus the install/remove bookkeeping for wrappers."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body (exceptions included)."""
        stack = self._stack()
        span = Span(
            name, time.perf_counter(), stack[-1] if stack else -1,
            threading.current_thread().name,
        )
        with self._lock:  # append + index must not interleave across threads
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_time += span.duration

    def mark(self) -> int:
        """A position in the span list; pass to :meth:`totals`."""
        return len(self.spans)

    # ------------------------------------------------------------------
    # Wrappers on public callables
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_return=None,
             on_raise=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_return(result)`` / ``on_raise(exc)`` let a caller count what
        the call did (a ``MoveReport``, an ``OutOfMemoryError``) at the
        same boundary the time is taken.
        """
        original = vars(owner)[attr]  # a class's or a module's own function

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    if on_raise is not None:
                        on_raise(exc)
                    raise
                if on_return is not None:
                    on_return(result)
                return result

        wrapper.__bench_wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def remove_wrappers(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def totals(self, since: int = 0, until: int | None = None) -> dict:
        """``{name: {"calls", "busy_s", "self_s"}}`` over a span range."""
        out: dict[str, dict] = {}
        for span in self.spans[since:until]:
            entry = out.setdefault(
                span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["busy_s"] += span.duration
            entry["self_s"] += span.self_time
        return out

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [s.duration for s in self.spans[since:] if s.name == name]

    def chrome_trace(self) -> dict:
        """The spans as a Chrome/Perfetto ``traceEvents`` object."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span.start for span in self.spans)
        threads = {}
        events = []
        for index, span in enumerate(self.spans):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"run": self.run_id, "id": index,
                         "parent": span.parent},
            })
        for thread, tid in threads.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": thread}})
        return {"traceEvents": events}


def is_wrapped(owner, attr: str) -> bool:
    """True while a :class:`Tracer` wrapper sits on ``owner.attr``."""
    return hasattr(getattr(owner, attr), "__bench_wrapped__")
