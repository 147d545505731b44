"""The rendezvous coordinator: membership, barriers, failure detection.

One process (or thread, in tests) owns the cluster's membership truth:

- **Rendezvous.** Workers ``join`` and block until a generation forms.
  A generation forms the moment ``world_size`` workers are pending, or
  once no new joiner has arrived for ``rendezvous_grace`` seconds and at
  least ``min_world`` are pending. Ranks are assigned by ascending slot.
- **Barriers.** Named, generation-scoped. A barrier that completes
  before a fence replies ``ok`` to every member (the collective's data
  is fully published, so it may finish); a fence while any member is
  still missing fails *all* waiters with a fenced reply.
- **Failure detection.** Each worker heartbeats on a dedicated
  connection. The monitor thread walks the membership every half
  interval: a heartbeat older than ``rules.SUSPECT_AFTER`` marks the
  worker suspect, older than ``rules.EVICT_AFTER`` evicts it. A control-connection
  EOF (SIGKILL closes the socket immediately) evicts without waiting
  for the deadline. Eviction fences the generation — survivors' next
  barrier fails, they re-join, and the next generation forms.

Every membership *decision* is made by the pure transition-rule table
in :mod:`repro.cluster.rules` — the same table the protocol model
checker (:mod:`repro.analysis.protocol`) exhaustively explores. This
class owns only what the rules cannot: threads, sockets, the wall
clock, and the ``membership_events.jsonl`` audit log the CI chaos job
uploads. Each event is persisted as one ``write`` of a full line plus
a flush, so a supervisor crash can never interleave torn event lines.

Thread model: one listener accept loop, one handler thread per
connection, one monitor thread. A single condition guards all mutable
state; every wait is bounded.
"""

from __future__ import annotations

import json
import os
import threading
import time
from multiprocessing.connection import Client, Listener

from repro.cluster import rules as membership_rules
from repro.cluster.protocol import (
    EVENTS_FILENAME,
    OP_BARRIER,
    OP_DONE,
    OP_HEARTBEAT,
    OP_JOIN,
    OP_LEAVE,
    OP_REPORT,
    OP_RETIRE,
    OP_SHUTDOWN,
    OP_STATS,
    ClusterConfig,
)
from repro.cluster.rules import EVENT_REPORT, HEARTBEAT_INTERVAL, MembershipState
from repro.errors import join_or_raise

_CLOSE = object()


class Coordinator:
    """Generation-numbered membership service for trainer workers."""

    def __init__(self, config: ClusterConfig, workdir: str, clock=None,
                 rules: dict | None = None):
        self.config = config
        self.workdir = workdir
        self.clock = clock if clock is not None else time.monotonic
        #: The shared transition table (injectable for protocol tests).
        self.rules = dict(membership_rules.RULES) if rules is None else rules
        os.makedirs(workdir, exist_ok=True)
        self.events_path = os.path.join(workdir, EVENTS_FILENAME)

        self._cond = threading.Condition()
        # All state below is guarded by _cond.
        self._state = MembershipState()
        self._closing = False
        self._reports: dict[str, dict] = {}
        self._events: list[dict] = []
        #: (address, authkey) while serving; OP_SHUTDOWN dials it.
        self._endpoint: tuple | None = None
        # Line-buffered append handle held for the coordinator's
        # lifetime: one write of a complete line + flush per event.
        self._events_file = open(self.events_path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, address, authkey: bytes) -> None:
        """Accept connections until :data:`OP_SHUTDOWN`; blocks."""
        listener = Listener(address, authkey=authkey)
        with self._cond:
            self._endpoint = (address, authkey)
        monitor = threading.Thread(
            target=self._monitor, name="cluster-monitor", daemon=True
        )
        monitor.start()
        try:
            while True:
                try:
                    conn = listener.accept()
                except (OSError, EOFError):
                    break  # the listening socket is unusable
                with self._cond:
                    closing = self._closing
                if closing:
                    conn.close()  # the shutdown handler's wake-up dial
                    break
                threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                ).start()
        finally:
            with self._cond:
                self._closing = True
                self._endpoint = None
                self._cond.notify_all()
            try:
                listener.close()
            except OSError:
                pass
            join_or_raise(monitor, 2.0, "monitor holding the lock?")
            with self._cond:
                try:
                    self._events_file.close()
                except OSError:
                    pass

    def _serve_connection(self, conn) -> None:
        try:
            hello = conn.recv()
        except (EOFError, OSError):
            conn.close()
            return
        worker = hello.get("worker", "?")
        kind = hello.get("kind", "control")
        try:
            conn.send({"ok": True})
            while True:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    break
                reply = self._dispatch(message)
                if reply is _CLOSE:
                    conn.send({"ok": True})
                    break
                conn.send(reply)
        except (EOFError, OSError, BrokenPipeError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass
            if kind == "control":
                self._on_disconnect(worker)

    def _dispatch(self, message: dict):
        op = message.get("op")
        worker = message.get("worker", "?")
        if op == OP_JOIN:
            return self._op_join(worker, message)
        if op == OP_BARRIER:
            return self._op_barrier(worker, message)
        if op == OP_HEARTBEAT:
            return self._op_heartbeat(worker, message)
        if op == OP_RETIRE:
            return self._op_retire(worker, message)
        if op == OP_REPORT:
            return self._op_report(worker, message)
        if op == OP_DONE:
            return self._op_done(worker)
        if op == OP_STATS:
            return self._op_stats()
        if op == OP_SHUTDOWN:
            self._op_shutdown()
            return {"ok": True}
        if op == OP_LEAVE:
            return _CLOSE
        return {"ok": False, "error": f"unknown op {op!r}"}

    # ------------------------------------------------------------------
    # Ops — thin adapters: take the lock, apply a rule, log its events.
    # ------------------------------------------------------------------
    def _op_join(self, worker: str, message: dict) -> dict:
        with self._cond:
            if self._closing or self._state.complete:
                return {"ok": False, "closing": True,
                        "complete": self._state.complete}
            self._apply(self.rules["join"](
                self._state, worker,
                int(message.get("slot", 0)),
                int(message.get("incarnation", 0)),
                self.clock(),
            ))

            def admitted():
                state = self._state
                return (
                    self._closing or state.complete
                    or (worker in state.members
                        and worker not in state.pending)
                )

            if not self._cond.wait_for(admitted, timeout=self.config.run_timeout):
                self._state.pending.pop(worker, None)
                return {"ok": False, "error": "rendezvous timed out"}
            state = self._state
            if self._closing or state.complete:
                return {"ok": False, "closing": True,
                        "complete": state.complete}
            member = state.members[worker]
            return {
                "ok": True,
                "generation": state.generation,
                "rank": member.rank,
                "world": len(state.members),
                "members": {w: m.rank for w, m in state.members.items()},
                "num_data_shards": self.config.num_data_shards,
            }

    def _op_barrier(self, worker: str, message: dict) -> dict:
        name = str(message.get("name"))
        generation = int(message.get("generation", -1))
        with self._cond:
            status, events = self.rules["barrier_arrive"](
                self._state, worker, name, generation
            )
            self._apply(events)
            if status == "stale":
                return self._fenced_reply("stale generation")
            if status == "fenced":
                return self._fenced_reply(self._state.fence_reason)
            if status == "released":
                self._cond.notify_all()
            else:
                self._cond.wait_for(
                    lambda: self.rules["barrier_status"](
                        self._state, name, generation
                    )[0] != "wait" or self._closing,
                    timeout=self.config.run_timeout,
                )
            # A barrier that released before the fence stays good: every
            # member already published its data for this collective.
            status, rejoin = self.rules["barrier_status"](
                self._state, name, generation
            )
            if status == "released":
                return {"ok": True, "rejoin": rejoin}
            return self._fenced_reply(
                self._state.fence_reason or "barrier timed out"
            )

    def _op_heartbeat(self, worker: str, message: dict) -> dict:
        generation = int(message.get("generation", -1))
        with self._cond:
            standing = self.rules["heartbeat"](
                self._state, worker, generation, self.clock(),
                step=message.get("step"),
            )
            return {"ok": True, **standing}

    def _op_retire(self, worker: str, message: dict) -> dict:
        generation = int(message.get("generation", -1))
        with self._cond:
            self._apply(self.rules["retire"](
                self._state, worker, generation, self.clock()
            ))
            self._cond.notify_all()
            return {"ok": True}

    def _op_report(self, worker: str, message: dict) -> dict:
        with self._cond:
            self._reports[worker] = message.get("payload", {})
            self._log(EVENT_REPORT, worker=worker)
            return {"ok": True}

    def _op_done(self, worker: str) -> dict:
        with self._cond:
            complete, events = self.rules["done"](self._state, worker)
            self._apply(events)
            if events:
                self._cond.notify_all()
            return {"ok": True, "complete": complete}

    def _op_stats(self) -> dict:
        with self._cond:
            now = self.clock()
            state = self._state
            members = {}
            for worker, member in state.members.items():
                age = max(0.0, now - member.last_beat)
                members[worker] = {
                    "rank": member.rank,
                    "slot": member.slot,
                    "incarnation": member.incarnation,
                    "step": member.step,
                    "age": age,
                    "missed": member.missed,
                    "suspect": member.suspect,
                    "done": member.done,
                }
            return {
                "ok": True,
                "generation": state.generation,
                "world": len(state.members),
                "fenced": state.fenced,
                "evictions": state.evictions,
                "complete": state.complete,
                "members": members,
                "pending": sorted(state.pending),
                "reports": dict(self._reports),
            }

    def _op_shutdown(self) -> None:
        """Make :meth:`serve` return: closing the listener from this
        handler thread would not interrupt the accept loop's blocked
        ``accept()``; one dial does, and the loop sees ``_closing``."""
        with self._cond:
            self._closing = True
            endpoint = self._endpoint
            self._cond.notify_all()
        if endpoint is not None:
            try:
                Client(endpoint[0], authkey=endpoint[1]).close()
            except (OSError, EOFError):
                pass  # the accept loop is already gone

    def _on_disconnect(self, worker: str) -> None:
        """Control EOF: a SIGKILLed worker is evicted without a deadline."""
        with self._cond:
            if self._closing:
                self._state.pending.pop(worker, None)
                return
            events = self.rules["disconnect"](
                self._state, worker, self.clock()
            )
            self._apply(events)
            if events:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Monitor thread: formation + heartbeat deadlines
    # ------------------------------------------------------------------
    def _monitor(self) -> None:
        with self._cond:
            while not self._closing:
                self._cond.wait(timeout=HEARTBEAT_INTERVAL / 2)
                if self._closing:
                    return
                now = self.clock()
                self._check_formation(now)
                self._check_liveness(now)

    def _check_formation(self, now: float) -> None:
        """Form the next generation from pending joiners.

        Called with ``_cond`` held; re-acquires it (the condition wraps
        an RLock) so every write is lock-mediated in its own right.
        """
        with self._cond:
            if self.rules["formation_due"](self._state, now, self.config):
                self._apply(self.rules["form"](self._state, now))
                self._cond.notify_all()

    def _check_liveness(self, now: float) -> None:
        """Advance the missed counters and the suspect/evict ladder."""
        with self._cond:
            events = self.rules["liveness"](self._state, now)
            self._apply(events)
            if events:
                self._cond.notify_all()

    def _fenced_reply(self, reason: str | None) -> dict:
        return {
            "ok": False,
            "fenced": True,
            "generation": self._state.generation,
            "reason": reason,
        }

    # ------------------------------------------------------------------
    # Event log (called under _cond)
    # ------------------------------------------------------------------
    def _apply(self, events: list) -> None:
        """Persist the events a rule returned."""
        for event_type, fields in events:
            self._log(event_type, **fields)

    def _log(self, event_type: str, **fields) -> None:
        event = {
            "type": event_type,
            "time": time.time(),
            "generation": self._state.generation,
            **fields,
        }
        self._events.append(event)
        # Atomic at the line level: a single write of one full line,
        # flushed immediately, so torn lines cannot appear in the log
        # even if the coordinator process dies mid-run.
        try:
            self._events_file.write(json.dumps(event) + "\n")
            self._events_file.flush()
        except (OSError, ValueError):
            pass  # the log is an audit trail, never worth crashing for


def coordinator_main(config: ClusterConfig, address, authkey: bytes,
                     workdir: str) -> None:
    """Process entry point: serve until shut down (spawn-safe)."""
    Coordinator(config, workdir).serve(address, authkey)
