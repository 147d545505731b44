"""The coordinator's membership protocol as a pure transition-rule table.

Every membership transition the threaded :class:`~repro.cluster.
coordinator.Coordinator` performs — join, generation formation, barrier
arrival, heartbeat, retire, done, eviction, fencing, disconnect,
liveness deadlines — lives here as a pure function over a
:class:`MembershipState`. The coordinator holds one ``MembershipState``
under its condition variable and *delegates* every mutation to this
table; the protocol model checker (:mod:`repro.analysis.protocol`)
drives the **same** table from its explorer. One implementation, two
harnesses: the rules cannot drift between the production coordinator
and the model that verifies it.

Purity contract: rules never touch clocks, threads, sockets or files.
Time enters only as an explicit ``now`` argument; every rule returns
the membership **events** it caused as ``(event_type, fields)`` pairs
so the caller decides how to persist them (the coordinator appends
them to ``membership_events.jsonl``; the explorer feeds them to its
invariant checks).

State-space note: barriers are keyed by ``(generation, name)`` and are
never garbage-collected. A barrier released before a fence must keep
answering ``ok`` to late waiters of its own generation ("released
before the fence stays good"); runs are short (tens of steps, a
handful of generations), so the dict stays tiny.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Event types appended to ``membership_events.jsonl``. The protocol
#: module re-exports these; they are defined here so the rule table has
#: no intra-cluster imports (the analysis layer loads it standalone).
EVENT_JOIN = "join"
EVENT_GENERATION = "generation_formed"
EVENT_SUSPECT = "suspect"
EVENT_EVICTED = "evicted"
EVENT_FENCED = "fenced"
EVENT_RETIRED = "retired"
EVENT_REPORT = "report"
EVENT_COMPLETE = "complete"

#: Failure-detector timing, in seconds: how often a worker beats, and the
#: heartbeat ages at which :func:`liveness` marks it suspect and evicts it.
HEARTBEAT_INTERVAL = 0.05
SUSPECT_AFTER = 0.25
EVICT_AFTER = 0.75


@dataclass
class MemberInfo:
    """One worker's standing in the current generation."""

    worker: str
    slot: int
    incarnation: int
    rank: int
    last_beat: float = 0.0
    missed: int = 0
    suspect: bool = False
    step: int = 0
    done: bool = False


@dataclass
class BarrierInfo:
    """One named barrier's arrivals within one generation."""

    arrived: set = field(default_factory=set)
    released: bool = False
    #: Decided once, when the last member arrives, so every member gets
    #: the same answer: should the group checkpoint and re-form to
    #: admit pending joiners?
    rejoin: bool = False


@dataclass
class MembershipState:
    """The coordinator's entire membership truth, as plain data."""

    generation: int = 0
    fenced: bool = False
    fence_reason: str | None = None
    members: dict = field(default_factory=dict)   # worker -> MemberInfo
    pending: dict = field(default_factory=dict)   # worker -> {slot, incarnation}
    barriers: dict = field(default_factory=dict)  # (gen, name) -> BarrierInfo
    last_join: float | None = None
    evictions: int = 0
    complete: bool = False

    def clone(self) -> "MembershipState":
        """Deep-enough copy for stateless exploration."""
        return MembershipState(
            generation=self.generation,
            fenced=self.fenced,
            fence_reason=self.fence_reason,
            members={w: replace(m) for w, m in self.members.items()},
            pending={w: dict(info) for w, info in self.pending.items()},
            barriers={
                key: BarrierInfo(set(b.arrived), b.released, b.rejoin)
                for key, b in self.barriers.items()
            },
            last_join=self.last_join,
            evictions=self.evictions,
            complete=self.complete,
        )

    def key(self) -> tuple:
        """Canonical hashable key for visited-state memoization.

        Excludes ``fence_reason`` (human text) and per-member
        ``last_beat``/``missed`` bookkeeping: under the model's
        abstract clock these never distinguish reachable futures.
        """
        return (
            self.generation,
            self.fenced,
            self.complete,
            self.evictions,
            self.last_join,
            tuple(sorted(
                (w, m.slot, m.incarnation, m.rank, m.done, m.suspect)
                for w, m in self.members.items()
            )),
            tuple(sorted(
                (w, info["slot"], info["incarnation"])
                for w, info in self.pending.items()
            )),
            tuple(sorted(
                (gen, name, tuple(sorted(b.arrived)), b.released, b.rejoin)
                for (gen, name), b in self.barriers.items()
            )),
        )


# ----------------------------------------------------------------------
# Transition rules. Each takes the state first, mutates it in place,
# and returns the list of membership events it caused.
# ----------------------------------------------------------------------

def join(state: MembershipState, worker: str, slot: int, incarnation: int,
         now: float) -> list:
    """A worker asks to be admitted into the next generation."""
    state.pending[worker] = {"slot": int(slot), "incarnation": int(incarnation)}
    state.last_join = now
    return [(EVENT_JOIN, {"worker": worker, "slot": int(slot),
                          "incarnation": int(incarnation)})]


def formation_due(state: MembershipState, now: float, config) -> str | None:
    """Why the next generation should form now — or ``None``.

    Returns ``"quorum"`` (``world_size`` pending) or ``"grace"`` (the
    rendezvous grace expired with someone pending). Formation is only
    legal while no unfenced generation is running. After a fence, grace
    also waits until every member of the fenced generation that is
    still there (not evicted, not disconnected, not done) is pending
    again: a survivor that is slower to rejoin than a waiting joiner
    must not be left out of the generation that joiner triggered.
    """
    if state.complete or not state.pending:
        return None
    if state.generation > 0 and not state.fenced:
        return None  # an unfenced generation is running; joiners wait
    if len(state.pending) >= config.world_size:
        return "quorum"
    if (state.last_join is None
            or now - state.last_join < config.rendezvous_grace):
        return None
    if any(worker not in state.pending and not member.done
           for worker, member in state.members.items()):
        return None  # a survivor of the fenced generation is still coming
    return "grace"


def form(state: MembershipState, now: float) -> list:
    """Form the next generation from every pending joiner.

    Ranks are assigned by ascending slot; the fence (if any) lifts.
    """
    state.generation += 1
    state.fenced = False
    state.fence_reason = None
    state.members = {}
    ordered = sorted(state.pending.items(), key=lambda item: item[1]["slot"])
    for rank, (worker, info) in enumerate(ordered):
        state.members[worker] = MemberInfo(
            worker, info["slot"], info["incarnation"], rank, last_beat=now
        )
    state.pending = {}
    return [(EVENT_GENERATION, {
        "world": len(state.members),
        "members": {w: m.rank for w, m in state.members.items()},
    })]


def barrier_arrive(state: MembershipState, worker: str, name: str,
                   generation: int) -> tuple:
    """A member arrives at a named, generation-scoped barrier.

    Returns ``(status, events)`` where status is ``"stale"`` (wrong
    generation or not a member), ``"fenced"``, ``"released"`` (this
    arrival completed the barrier) or ``"wait"``.
    """
    if generation != state.generation or worker not in state.members:
        return "stale", []
    if state.fenced:
        return "fenced", []
    barrier = state.barriers.setdefault((generation, name), BarrierInfo())
    barrier.arrived.add(worker)
    if barrier.arrived >= set(state.members):
        barrier.released = True
        # One decision for the whole group, made at release time.
        barrier.rejoin = bool(state.pending)
        return "released", []
    return "wait", []


def barrier_status(state: MembershipState, name: str,
                   generation: int) -> tuple:
    """Poll a barrier a member is already waiting on.

    Returns ``(status, rejoin)``. A barrier that released before the
    fence stays good — every member already published its data for
    this collective — so ``released`` wins over ``fenced``.
    """
    barrier = state.barriers.get((generation, name))
    if barrier is not None and barrier.released:
        return "released", barrier.rejoin
    if state.fenced or generation != state.generation:
        return "fenced", False
    return "wait", False


def heartbeat(state: MembershipState, worker: str, generation: int,
              now: float, step: int | None = None) -> dict:
    """Refresh a member's liveness clock; reports membership standing."""
    member = state.members.get(worker)
    if member is None or generation != state.generation:
        return {"member": False, "fenced": True}
    member.last_beat = now
    member.missed = 0
    member.suspect = False
    if step is not None:
        member.step = int(step)
    return {"member": True, "fenced": state.fenced}


def retire(state: MembershipState, worker: str, generation: int,
           now: float) -> list:
    """A member requests a rescale: fence so the group can re-form."""
    events = []
    if generation == state.generation and not state.fenced:
        events.extend(fence(state, f"rescale requested by {worker}", now))
    events.append((EVENT_RETIRED, {"worker": worker}))
    return events


def done(state: MembershipState, worker: str) -> tuple:
    """A member finished training. Returns ``(complete, events)``."""
    member = state.members.get(worker)
    if member is not None:
        member.done = True
    if (
        not state.fenced
        and state.members
        and all(m.done for m in state.members.values())
        and not state.complete
    ):
        state.complete = True
        return True, [(EVENT_COMPLETE, {"world": len(state.members)})]
    return state.complete, []


def evict(state: MembershipState, worker: str, reason: str,
          now: float) -> list:
    """Remove a dead worker and fence its generation."""
    member = state.members.pop(worker, None)
    if member is None:
        return []
    state.evictions += 1
    events = [(EVENT_EVICTED, {"worker": worker, "reason": reason})]
    if not state.fenced:
        events.extend(fence(state, f"{worker} evicted ({reason})", now))
    return events


def fence(state: MembershipState, reason: str, now: float) -> list:
    """No collective of this generation may complete from here on.

    Restarts the rendezvous grace clock: survivors deserve the full
    window to re-join before a smaller generation forms around whoever
    was already pending.
    """
    state.fenced = True
    state.fence_reason = reason
    state.last_join = now
    return [(EVENT_FENCED, {"reason": reason})]


def disconnect(state: MembershipState, worker: str, now: float) -> list:
    """Control EOF: a SIGKILLed worker is evicted without a deadline.

    In a fenced generation there is nothing left to evict from; the
    worker only stops being one the next formation waits for.
    """
    state.pending.pop(worker, None)
    if state.fenced:
        state.members.pop(worker, None)
        return []
    member = state.members.get(worker)
    if member is None or member.done or state.complete:
        return []
    return evict(state, worker, "control connection lost", now)


def liveness(state: MembershipState, now: float) -> list:
    """Advance the missed counters and the suspect/evict ladder."""
    if state.generation == 0:
        return []
    events = []
    for worker in list(state.members):
        member = state.members[worker]
        if member.done:
            continue
        age = max(0.0, now - member.last_beat)
        member.missed = int(age / HEARTBEAT_INTERVAL)
        if state.fenced or state.complete:
            continue  # fenced generations are already torn down
        if age >= SUSPECT_AFTER and not member.suspect:
            member.suspect = True
            events.append((EVENT_SUSPECT,
                           {"worker": worker, "age": round(age, 4)}))
        if age >= EVICT_AFTER:
            events.extend(
                evict(state, worker, f"heartbeat silent for {age:.3f}s", now)
            )
    return events


def next_incarnation(incarnation: int) -> int:
    """The incarnation a respawned worker must present when rejoining."""
    return incarnation + 1


#: The shared transition table. ``Coordinator`` dispatches through this
#: dict and the protocol explorer drives the same entries; seeding a
#: mutation into a *copy* of this table is how the model-checker tests
#: prove each invariant has teeth.
RULES = {
    "join": join,
    "formation_due": formation_due,
    "form": form,
    "barrier_arrive": barrier_arrive,
    "barrier_status": barrier_status,
    "heartbeat": heartbeat,
    "retire": retire,
    "done": done,
    "evict": evict,
    "fence": fence,
    "disconnect": disconnect,
    "liveness": liveness,
    "next_incarnation": next_incarnation,
}
