"""Pipelined runtime: schedule-driven asynchronous page movement.

Algorithm 1's output is a list of ``{operation, page, trigger_id}`` tasks;
inside the simulator those tasks overlap with compute for free, but the
live functional engine used to execute every fetch synchronously on first
touch. This module supplies the two background workers that close that
gap:

- :class:`PrefetchWorker` consumes the planned ``move_to_gpu`` /
  ``move_to_cpu`` tasks ahead of the compute loop. Tasks are released by
  trigger id — a fetch may run up to ``window`` triggers ahead of the
  last announced compute op, an eviction never before its trigger — and
  small page moves on the same (src, dst) edge are coalesced into one
  batched transfer per (trigger, layer) group. The compute loop *awaits*
  a layer (already in flight or resident) instead of fetching it; a
  prefetch that cannot fit is abandoned and the demand path (which may
  evict) takes over, so the pipeline is always a performance layer, never
  a correctness layer.

- :class:`WritebackQueue` is the state I/O thread: one FIFO that takes
  the FP32-state traffic off the update path in both directions. The
  forward queues each layer's state *read* ahead of the sweep that
  consumes it (``submit_read``), behind the previous sweep's *writes*
  (``submit``), so read-your-writes holds by queue order alone.
  ``wait(key)`` blocks on one layer's queued I/O; ``barrier()`` on
  everything (the sweep's start, checkpoints, close). An I/O error stops
  the thread and drops the queue; it surfaces on the training thread,
  and a dead tier's engine is discarded and rebuilt from a snapshot
  (:mod:`repro.resilience.trainer`).

Both workers follow the repo's threading discipline (checked by
``repro check --self``): daemon threads, every cross-thread attribute
guarded by one condition variable, errors captured and re-raised on the
training thread at the next step boundary.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ConfigurationError, QueueClosedError, SchedulingError, join_or_raise
from repro.lockfree.queues import WorkQueue
from repro.scheduler.tasks import Operation, Schedule


@dataclass(frozen=True)
class MoveGroup:
    """One coalesced page-movement burst: all of a layer's planned pages
    sharing one (trigger, direction) — the unit the worker executes."""

    trigger_id: int
    layer_index: int
    fetch: bool  # True = move_to_gpu, False = move_to_cpu (eviction)
    nbytes: int
    pages: int


def coalesce_schedule(schedule: Schedule) -> list[MoveGroup]:
    """Group the schedule's page moves by (trigger, layer, direction).

    The lifetime scheduler emits per-page tasks in non-decreasing trigger
    order; merging same-edge neighbours turns dozens of page-sized
    transfers into one batched ``move_pages`` per layer per trigger,
    mirroring the coalescing the simulator already applies.
    """
    groups: list[MoveGroup] = []
    order: dict[tuple[int, int, bool], int] = {}
    sums: dict[tuple[int, int, bool], list[int]] = {}
    for task in schedule:
        if task.operation == Operation.MOVE_TO_GPU:
            fetch = True
        elif task.operation == Operation.MOVE_TO_CPU:
            fetch = False
        else:
            continue
        key = (task.trigger_id, task.layer_index, fetch)
        if key not in order:
            order[key] = len(order)
            sums[key] = [0, 0]
        sums[key][0] += task.nbytes
        sums[key][1] += 1
    for key in sorted(order, key=lambda k: (k[0], order[k])):
        trigger_id, layer_index, fetch = key
        nbytes, pages = sums[key]
        groups.append(MoveGroup(
            trigger_id=trigger_id, layer_index=layer_index, fetch=fetch,
            nbytes=nbytes, pages=pages,
        ))
    return groups


class PrefetchWorker:
    """Background executor of a planned iteration's page movements.

    ``fetch_fn(layer_index)`` stages a layer's pages on the GPU and
    returns True, or — never evicting — returns False without moving
    anything when they do not fit; ``evict_fn(layer_index)`` returns
    them to the CPU. Both run on the worker thread — the engine
    serializes them against its demand path with its own move lock.
    """

    def __init__(
        self,
        groups: list[MoveGroup],
        fetch_fn,
        evict_fn,
        num_ops: int,
        window: int = 2,
        telemetry=None,
    ):
        if window < 1:
            raise ConfigurationError("prefetch window must be >= 1 trigger")
        if telemetry is None:
            from repro.telemetry.core import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.telemetry = telemetry
        self.window = window
        self.num_ops = num_ops
        self._groups = list(groups)
        self._fetch_fn = fetch_fn
        self._evict_fn = evict_fn
        #: Guards every cross-thread field below (repro check --self).
        self._cond = threading.Condition()
        self._cursor = len(self._groups)  # idle until begin_iteration()
        self._horizon = 0
        self._executing: MoveGroup | None = None  # picked, not yet done
        #: layer -> triggers of its unfinished fetch groups, in order.
        self._undone: dict[int, list[int]] = {}
        self._stopping = False
        self._error: BaseException | None = None
        self.prefetched_bytes = 0
        self.prefetched_groups = 0
        self.abandoned = 0
        self.deferred = 0
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="prefetch"
        )
        self._io_histogram = telemetry.histogram("pipeline.prefetch_seconds")

    # ------------------------------------------------------------------
    # Worker thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            while True:
                group = self._next_group()
                if group is None:
                    return
                self._execute(group)
        except BaseException as exc:  # re-raised at the step boundary
            with self._cond:
                self._error = exc
                self._executing = None
                self._undone.clear()
                self._cond.notify_all()

    def _next_group(self) -> MoveGroup | None:
        """Block until the next group's trigger is released (or stop)."""
        with self._cond:
            while True:
                if self._stopping:
                    return None
                if self._cursor < len(self._groups):
                    group = self._groups[self._cursor]
                    ahead = group.trigger_id - self._horizon
                    limit = self.window if group.fetch else 0
                    if ahead <= limit:
                        self._cursor += 1
                        self._executing = group
                        return group
                self._cond.wait()

    def _execute(self, group: MoveGroup) -> None:
        clock = self.telemetry.clock
        if not group.fetch:
            started = clock.perf()
            self._evict_fn(group.layer_index)
            self._io_histogram.observe(clock.perf() - started)
            # finish_iteration may be waiting on exactly this group.
            with self._cond:
                self._executing = None
                self._cond.notify_all()
            return
        moved = self._try_fetch(group)
        if not moved:
            # Ran ahead into a full pool: hold the slot until the group's
            # own trigger is due, then try once more before giving up.
            with self._cond:
                self.deferred += 1
                while (
                    self._horizon < group.trigger_id
                    and not self._stopping
                ):
                    self._cond.wait()
            moved = self._try_fetch(group)
        with self._cond:
            self._executing = None
            triggers = self._undone.get(group.layer_index, [])
            if group.trigger_id in triggers:
                triggers.remove(group.trigger_id)
                if not triggers:
                    self._undone.pop(group.layer_index, None)
            if moved:
                self.prefetched_groups += 1
                self.prefetched_bytes += group.nbytes
            else:
                self.abandoned += 1
            self._cond.notify_all()
        self.telemetry.record_prefetch("completed" if moved else "abandoned")

    def _try_fetch(self, group: MoveGroup) -> bool:
        clock = self.telemetry.clock
        started = clock.perf()
        if not self._fetch_fn(group.layer_index):
            return False
        self._io_histogram.observe(clock.perf() - started)
        return True

    # ------------------------------------------------------------------
    # Compute-loop side
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread.start()

    def begin_iteration(self) -> None:
        """Arm the worker for one iteration's schedule replay."""
        self.raise_if_failed()
        undone: dict[int, list[int]] = {}
        for group in self._groups:
            if group.fetch:
                undone.setdefault(group.layer_index, []).append(
                    group.trigger_id
                )
        with self._cond:
            self._cursor = 0
            self._horizon = 0
            self._undone = undone
            self._cond.notify_all()

    def advance(self, op_id: int) -> None:
        """Announce that compute has reached logical op ``op_id``."""
        with self._cond:
            if op_id > self._horizon:
                self._horizon = op_id
                self._cond.notify_all()

    def await_layer(self, layer_index: int, op_id: int) -> float:
        """Block until no due or in-flight fetch of ``layer_index`` is
        pending; returns the seconds stalled (the overlap-gap metric).

        Only groups whose trigger has been released (``<= op_id``) or
        that are already executing gate the caller — a fetch planned for
        a later trigger cannot be waited on without deadlock, and the
        demand path covers it if it is really needed now.
        """
        clock = self.telemetry.clock
        with self._cond:
            if not self._relevant(layer_index, op_id):
                return 0.0
            started = clock.perf()
            while (
                self._relevant(layer_index, op_id)
                and self._error is None
                and not self._stopping
            ):
                self._cond.wait()
            return clock.perf() - started

    def _relevant(self, layer_index: int, op_id: int) -> bool:
        group = self._executing
        if group is not None and group.fetch and group.layer_index == layer_index:
            return True
        triggers = self._undone.get(layer_index)
        return bool(triggers) and triggers[0] <= op_id

    def finish_iteration(self, timeout: float = 30.0) -> None:
        """Drain the iteration: release every trigger and join the tail."""
        self.advance(self.num_ops - 1)
        with self._cond:
            drained = self._cond.wait_for(
                lambda: (
                    self._cursor >= len(self._groups)
                    and self._executing is None
                ) or self._error is not None or self._stopping,
                timeout=timeout,
            )
        self.raise_if_failed()
        if not drained:
            raise SchedulingError(
                f"prefetch worker did not drain the iteration within "
                f"{timeout:.0f}s (stuck page move?)"
            )

    def raise_if_failed(self) -> None:
        with self._cond:
            error = self._error
        if error is not None:
            raise error

    def stop(self, timeout: float = 30.0) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        join_or_raise(self._thread, timeout, "stuck page move?")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._cond:
            return {
                "groups": len(self._groups),
                "prefetched_groups": self.prefetched_groups,
                "prefetched_bytes": self.prefetched_bytes,
                "abandoned": self.abandoned,
                "deferred": self.deferred,
                "window": self.window,
            }


class WritebackQueue:
    """The state I/O thread: FP32-state reads ahead, writes behind.

    ``submit(key, fn)`` enqueues one state write and ``submit_read(key,
    fn)`` one state read; a single daemon thread executes both, in FIFO
    order, through ``io_fn`` (which applies the engine's retry policy).
    The queue is bounded, so a dying SSD tier backpressures the sweep
    instead of ballooning host memory.
    """

    def __init__(self, io_fn, telemetry=None, maxsize: int = 64,
                 wait_timeout: float | None = 60.0):
        if telemetry is None:
            from repro.telemetry.core import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.telemetry = telemetry
        self._io_fn = io_fn
        #: Default bound on wait()/barrier(): a writer thread that died
        #: without closing the queue surfaces as TimeoutError at the
        #: next sweep instead of a permanent hang.
        self._wait_timeout = wait_timeout
        self._queue = WorkQueue(maxsize=maxsize)
        #: Guards the error slot and counters (repro check --self).
        self._cond = threading.Condition()
        self._error: BaseException | None = None
        self.flushed = 0  # state writes landed
        self.read_ahead = 0  # state reads landed
        self._seconds = telemetry.histogram("pipeline.state_io_seconds")
        self._depth = telemetry.gauge("pipeline.writeback_depth")
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="writeback"
        )

    # ------------------------------------------------------------------
    # State I/O thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        clock = self.telemetry.clock
        while True:
            entry = self._queue.get()
            if entry is None:
                return
            key, (fn, is_read) = entry
            try:
                started = clock.perf()
                self._io_fn(fn)
                self._seconds.observe(clock.perf() - started)
                with self._cond:
                    if is_read:
                        self.read_ahead += 1
                    else:
                        self.flushed += 1
            except BaseException as exc:
                with self._cond:
                    self._error = exc
                # Queued I/O can no longer be trusted to land. Close first,
                # so no submit can slip in behind the abort, then drop the
                # queue so barrier()/wait() callers wake and see the error
                # instead of hanging on a dead thread.
                self._queue.close()
                self._queue.abort()
                self._queue.task_done(key)
                return
            finally:
                self._depth.set(len(self._queue))
            self._queue.task_done(key)

    # ------------------------------------------------------------------
    # Engine side
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread.start()

    def submit(self, key, fn) -> None:
        """Queue one state write; raises the thread's error, if any."""
        self.raise_if_failed()
        self._put(key, fn, is_read=False)

    def submit_read(self, key, fn) -> bool:
        """Queue one state read ahead of the sweep that consumes it.

        Never raises for a failed thread (it closed the queue): returns
        False, queuing nothing, and the error surfaces where the engine
        checks, at ``step()``.
        """
        try:
            self._put(key, fn, is_read=True)
        except QueueClosedError:
            return False
        return True

    def _put(self, key, fn, is_read: bool) -> None:
        self._queue.put(key, (fn, is_read))
        self._depth.set(len(self._queue))

    def wait(self, key, timeout: float | None = None) -> None:
        """Block until ``key``'s queued reads and writes landed.

        Bounded by ``timeout`` (default: the queue's ``wait_timeout``);
        raises :class:`TimeoutError` instead of hanging on a dead writer.
        """
        try:
            self._queue.wait_key(
                key, timeout if timeout is not None else self._wait_timeout
            )
        except TimeoutError:
            self.raise_if_failed()  # a captured writer error is the cause
            raise
        self.raise_if_failed()

    def barrier(self, timeout: float | None = None) -> None:
        """Block until every queued read and write landed (the sweep's
        start, checkpoints, close).

        Bounded like :meth:`wait`; raises :class:`TimeoutError` instead
        of hanging forever.
        """
        try:
            self._queue.wait_idle(
                timeout if timeout is not None else self._wait_timeout
            )
        except TimeoutError:
            self.raise_if_failed()
            raise
        self.raise_if_failed()

    def raise_if_failed(self) -> None:
        with self._cond:
            error = self._error
        if error is not None:
            raise error

    def close(self, timeout: float = 30.0) -> None:
        self._queue.close()
        join_or_raise(self._thread, timeout, "stuck state flush?")

    def stats(self) -> dict:
        with self._cond:
            return {"flushed": self.flushed, "read_ahead": self.read_ahead,
                    "queued": len(self._queue)}
