"""A pure state-machine model of the coordinator protocol.

The model composes two things:

- the **coordinator**, represented by the exact
  :class:`repro.cluster.rules.MembershipState` the production
  :class:`~repro.cluster.coordinator.Coordinator` holds, driven through
  the exact :data:`repro.cluster.rules.RULES` transition table it
  dispatches through (one table, zero drift);
- a **worker automaton** per (slot, incarnation) life, mirroring
  :func:`repro.cluster.worker.run_worker`'s outer rendezvous loop and
  inner step loop: join, train to each step barrier, retire when the
  group votes to rescale, rejoin after a fence, declare done.

Time is abstract. Every rule call uses ``now = 0.0``; heartbeat-deadline
eviction is a single nondeterministic ``expire`` action (it subsumes the
suspect/evict ladder — only the eviction changes membership), and the
rendezvous grace window is a ``grace`` action setting a boolean that any
join or fence resets — exactly mirroring the coordinator's
``last_join`` clock restarts, including the PR-6 fence-resets-grace
behavior. Checkpointing is abstracted to "every released step barrier
is durable": a rejoining worker resumes from the highest step any
barrier released (``checkpoint_every = 1`` in model terms).

The explorer (:mod:`repro.analysis.protocol.explorer`) enumerates
enabled actions via :func:`enabled_actions`, applies them on cloned
states via :func:`apply_action`, and checks the invariant catalog after
every transition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.rules import (
    EVENT_FENCED,
    EVENT_JOIN,
    MembershipState,
)
from repro.cluster.rules import RULES as COORDINATOR_RULES
from repro.errors import ConfigurationError

__all__ = [
    "COORDINATOR_RULES",
    "ProtocolConfig",
    "SystemState",
    "WorkerModel",
    "apply_action",
    "enabled_actions",
    "initial_system",
    "live_workers",
]

#: The model's single abstract instant (see module docstring).
NOW = 0.0

# Worker phases (the outer-loop automaton).
START = "start"          # alive, about to join
JOINING = "joining"      # in coordinator pending, awaiting formation
RUNNING = "running"      # member; next move is the current step's barrier
AWAITING = "awaiting"    # arrived at a barrier that has not released
RETIRING = "retiring"    # group voted rejoin: checkpointed, will retire
DONE_READY = "done_ready"  # finished every step, about to declare done
CRASHED = "crashed"      # SIGKILLed; only a respawn continues this slot
EXITED = "exited"        # left cleanly (workload complete or rejected)

#: Phases whose worker still has protocol obligations (used by the
#: rendezvous-convergence deadlock check).
LIVE_PHASES = frozenset(
    (START, JOINING, RUNNING, AWAITING, RETIRING, DONE_READY)
)
#: Phases a SIGKILL can interrupt (a START worker has not connected yet).
CRASHABLE_PHASES = frozenset(
    (JOINING, RUNNING, AWAITING, RETIRING, DONE_READY)
)


@dataclass(frozen=True)
class ProtocolConfig:
    """One bounded exploration scenario.

    ``world_size``/``rendezvous_grace`` feed the shared rule table
    verbatim; ``slots`` is how many supervisor slots exist
    (defaults to ``world_size``; fewer slots than ``world_size`` forces
    every formation through the grace path). The ``max_*`` knobs bound
    the fault nondeterminism so the state space stays finite.
    """

    world_size: int = 2
    slots: int | None = None
    steps: int = 2
    max_crashes: int = 1
    max_respawns: int = 1
    max_expiries: int = 1
    rendezvous_grace: float = 1.0

    def __post_init__(self):
        if self.world_size < 1:
            raise ConfigurationError(
                f"world_size must be >= 1, got {self.world_size}"
            )

    @property
    def num_slots(self) -> int:
        return self.world_size if self.slots is None else self.slots


def model_worker_id(slot: int, incarnation: int) -> str:
    """Same identity scheme as :func:`repro.cluster.protocol.worker_id`."""
    return f"w{slot}i{incarnation}"


@dataclass
class WorkerModel:
    """One worker life's position in the rendezvous + step loop."""

    worker: str
    slot: int
    incarnation: int
    phase: str = START
    generation: int = -1
    rank: int = -1
    step: int = 0

    def key(self) -> tuple:
        return (self.worker, self.slot, self.incarnation, self.phase,
                self.generation, self.rank, self.step)


@dataclass
class SystemState:
    """Coordinator state + every worker life + fault/history bookkeeping."""

    coord: MembershipState = field(default_factory=MembershipState)
    workers: dict = field(default_factory=dict)  # worker id -> WorkerModel
    crashes_used: int = 0
    expiries_used: int = 0
    respawns: dict = field(default_factory=dict)  # slot -> respawns used
    #: The rendezvous grace window has elapsed since the last join/fence.
    grace_elapsed: bool = False
    #: How many times the grace window elapsed (regression probes).
    graces: int = 0
    #: Highest step any released barrier certified (abstract checkpoint).
    progress: int = 0
    # ---- history the invariants need (never read by the rules) ----
    fenced_generations: frozenset = frozenset()
    crashed_lives: frozenset = frozenset()   # {(slot, incarnation), ...}
    admitted: dict = field(default_factory=dict)  # slot -> last admitted inc

    def clone(self) -> "SystemState":
        return SystemState(
            coord=self.coord.clone(),
            workers={wid: replace(w) for wid, w in self.workers.items()},
            crashes_used=self.crashes_used,
            expiries_used=self.expiries_used,
            respawns=dict(self.respawns),
            grace_elapsed=self.grace_elapsed,
            graces=self.graces,
            progress=self.progress,
            fenced_generations=self.fenced_generations,
            crashed_lives=self.crashed_lives,
            admitted=dict(self.admitted),
        )

    def key(self) -> tuple:
        return (
            self.coord.key(),
            tuple(self.workers[wid].key() for wid in sorted(self.workers)),
            self.crashes_used,
            self.expiries_used,
            tuple(sorted(self.respawns.items())),
            self.grace_elapsed,
            self.progress,
            tuple(sorted(self.fenced_generations)),
            tuple(sorted(self.crashed_lives)),
            tuple(sorted(self.admitted.items())),
        )


@dataclass(frozen=True)
class Action:
    """One enabled transition: a label, a kind, and its target.

    ``local`` marks actions that are deterministic and worker-local
    (they mutate no coordinator state and disable no other action's
    effect on the coordinator) — the explorer's partial-order reduction
    may commute them ahead of everything else.
    """

    label: str
    kind: str
    target: object = None
    local: bool = False


def initial_system(config: ProtocolConfig) -> SystemState:
    system = SystemState()
    for slot in range(config.num_slots):
        wid = model_worker_id(slot, 0)
        system.workers[wid] = WorkerModel(wid, slot, 0)
    return system


def live_workers(system: SystemState) -> list:
    return [w.worker for w in system.workers.values()
            if w.phase in LIVE_PHASES]


def _latest_life(system: SystemState, slot: int) -> WorkerModel | None:
    lives = [w for w in system.workers.values() if w.slot == slot]
    if not lives:
        return None
    return max(lives, key=lambda w: w.incarnation)


def enabled_actions(system: SystemState, config: ProtocolConfig,
                    rules: dict) -> list:
    """Every transition schedulable from ``system``, sorted by label."""
    coord = system.coord
    actions: list[Action] = []
    for wid in sorted(system.workers):
        w = system.workers[wid]
        if w.phase == START:
            if not coord.complete:
                actions.append(Action(f"join {wid}", "join", wid))
        elif w.phase == JOINING:
            if coord.complete:
                actions.append(Action(f"reject {wid}", "reject", wid,
                                      local=True))
        elif w.phase == RUNNING:
            actions.append(Action(
                f"barrier {wid} step{w.step}", "barrier", wid
            ))
        elif w.phase == AWAITING:
            status, _ = rules["barrier_status"](
                coord, f"step{w.step}", w.generation
            )
            if status != "wait":
                # Released resolution is worker-local: the coordinator
                # already released the barrier; only this worker's own
                # continuation remains. Fenced resolution re-enters the
                # rendezvous, so it stays interleaved.
                actions.append(Action(
                    f"resolve {wid} step{w.step}", "resolve", wid,
                    local=(status == "released"),
                ))
        elif w.phase == RETIRING:
            actions.append(Action(f"retire {wid}", "retire", wid))
        elif w.phase == DONE_READY:
            actions.append(Action(f"done {wid}", "done", wid))
        if (w.phase in CRASHABLE_PHASES
                and system.crashes_used < config.max_crashes):
            actions.append(Action(f"crash {wid}", "crash", wid))
        if (w.phase in (RUNNING, AWAITING)
                and system.expiries_used < config.max_expiries
                and wid in coord.members and not coord.members[wid].done
                and not coord.fenced and not coord.complete):
            actions.append(Action(f"expire {wid}", "expire", wid))
    if not coord.complete:
        for slot in range(config.num_slots):
            latest = _latest_life(system, slot)
            if (latest is not None and latest.phase == CRASHED
                    and system.respawns.get(slot, 0) < config.max_respawns):
                actions.append(Action(f"respawn slot{slot}", "respawn", slot))
    now = config.rendezvous_grace if system.grace_elapsed else NOW
    reason = rules["formation_due"](coord, now, config)
    if reason:
        actions.append(Action(f"form {reason}", "form"))
    if (
        not system.grace_elapsed
        and coord.pending
        and not coord.complete
        and (coord.generation == 0 or coord.fenced)
        and rules["formation_due"](coord, NOW, config) is None
    ):
        actions.append(Action("grace elapses", "grace"))
    return sorted(actions, key=lambda a: a.label)


def _proceed(system: SystemState, w: WorkerModel, rejoin: bool,
             config: ProtocolConfig) -> None:
    """A released step barrier: advance, then retire/finish/continue."""
    w.step += 1
    system.progress = max(system.progress, w.step)
    if w.step >= config.steps:
        w.phase = DONE_READY
    elif rejoin:
        w.phase = RETIRING
    else:
        w.phase = RUNNING


def _restart(w: WorkerModel) -> None:
    """Back to the outer rendezvous loop (fenced / stale / retired)."""
    w.phase = START
    w.generation = -1
    w.rank = -1


def apply_action(system: SystemState, action: Action,
                 config: ProtocolConfig, rules: dict) -> dict:
    """Apply ``action`` in place; returns what the invariants need.

    The info dict carries the rule-emitted membership events, the
    barriers this action newly released, and the members admitted if it
    formed a generation.
    """
    coord = system.coord
    info: dict = {"events": [], "released": [], "formed": []}
    kind = action.kind
    if kind == "join":
        w = system.workers[action.target]
        info["events"] += rules["join"](
            coord, w.worker, w.slot, w.incarnation, NOW
        )
        w.phase = JOINING
    elif kind == "grace":
        system.grace_elapsed = True
        system.graces += 1
    elif kind == "form":
        info["events"] += rules["form"](coord, NOW)
        system.grace_elapsed = False
        for wid, member in coord.members.items():
            info["formed"].append(
                (wid, member.slot, member.incarnation, member.rank)
            )
            w = system.workers.get(wid)
            if w is not None:
                w.generation = coord.generation
                w.rank = member.rank
                w.step = system.progress
                w.phase = RUNNING if w.step < config.steps else DONE_READY
        for _, slot, incarnation, _ in info["formed"]:
            system.admitted[slot] = incarnation
    elif kind == "barrier":
        w = system.workers[action.target]
        name = f"step{w.step}"
        status, events = rules["barrier_arrive"](
            coord, w.worker, name, w.generation
        )
        info["events"] += events
        if status == "released":
            info["released"].append((w.generation, name))
            rejoin = coord.barriers[(w.generation, name)].rejoin
            _proceed(system, w, rejoin, config)
        elif status == "wait":
            w.phase = AWAITING
        else:  # stale / fenced: checkpoint is durable, re-join
            _restart(w)
    elif kind == "resolve":
        w = system.workers[action.target]
        status, rejoin = rules["barrier_status"](
            coord, f"step{w.step}", w.generation
        )
        if status == "released":
            _proceed(system, w, rejoin, config)
        else:
            _restart(w)
    elif kind == "retire":
        w = system.workers[action.target]
        info["events"] += rules["retire"](
            coord, w.worker, w.generation, NOW
        )
        _restart(w)
    elif kind == "done":
        w = system.workers[action.target]
        _, events = rules["done"](coord, w.worker)
        info["events"] += events
        w.phase = EXITED
    elif kind == "crash":
        w = system.workers[action.target]
        w.phase = CRASHED
        system.crashes_used += 1
        system.crashed_lives = system.crashed_lives | {
            (w.slot, w.incarnation)
        }
        info["events"] += rules["disconnect"](coord, w.worker, NOW)
    elif kind == "respawn":
        slot = action.target
        latest = _latest_life(system, slot)
        system.respawns[slot] = system.respawns.get(slot, 0) + 1
        incarnation = rules["next_incarnation"](latest.incarnation)
        wid = model_worker_id(slot, incarnation)
        system.workers[wid] = WorkerModel(wid, slot, incarnation)
    elif kind == "expire":
        w = system.workers[action.target]
        system.expiries_used += 1
        info["events"] += rules["evict"](
            coord, w.worker, "heartbeat deadline expired", NOW
        )
        # The worker itself is alive (partitioned, not dead): it will
        # discover the fence at its next barrier or resolution.
    elif kind == "reject":
        w = system.workers[action.target]
        w.phase = EXITED
    else:  # pragma: no cover - enumeration and application must agree
        raise ValueError(f"unknown action kind {kind!r}")

    # Mirror the coordinator's last_join clock restarts: a join or a
    # fence restarts the rendezvous grace window (the PR-6 behavior).
    for event_type, _fields in info["events"]:
        if event_type == EVENT_FENCED:
            system.fenced_generations = (
                system.fenced_generations | {coord.generation}
            )
            system.grace_elapsed = False
        elif event_type == EVENT_JOIN:
            system.grace_elapsed = False
    return info
