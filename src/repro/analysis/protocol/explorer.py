"""Bounded-depth stateless model checking of the coordinator protocol.

Breadth-first exploration over :mod:`repro.analysis.protocol.model`
system states, driven by the coordinator's own transition-rule table
(:data:`repro.cluster.rules.RULES`). BFS plus canonical-state
memoization means the first violation found is a *minimal* action
trace; it is reported as one PR-4 :class:`~repro.analysis.invariants.
Violation` whose provenance is the full counterexample schedule and
whose message names the offending action.

Partial-order reduction: when any enabled action is provably local —
deterministic, worker-private, with no effect on coordinator state
(resolving an already-released barrier, a rejected joiner exiting after
completion) — the explorer commutes the first such action ahead of the
rest instead of branching. Every pruned interleaving differs from an
explored one only in when a worker consumes an answer the coordinator
already committed, which no membership invariant can observe.

Seeding a mutation is how the tests prove each invariant has teeth::

    rules = dict(RULES, barrier_arrive=patched)
    result = ProtocolExplorer(rules=rules).explore(depth=8)
    assert result.violations[0].invariant == FENCE_NEVER_PATCH
"""

from __future__ import annotations

from collections import deque

from repro.analysis.invariants import (
    BARRIER_RELEASE_FULL,
    COMPLETE_IMPLIES_DONE,
    FENCE_NEVER_PATCH,
    GENERATION_MONOTONIC,
    INCARNATION_BUMP,
    NO_SPLIT_BRAIN,
    PROTOCOL_INVARIANTS,
    RENDEZVOUS_CONVERGENCE,
    SURVIVORS_REJOIN,
    UNIQUE_RANK_PER_SLOT,
    VerificationResult,
    Violation,
)
from repro.analysis.protocol.model import (
    COORDINATOR_RULES,
    LIVE_PHASES,
    ProtocolConfig,
    apply_action,
    enabled_actions,
    initial_system,
    live_workers,
)
from repro.cluster.rules import EVENT_COMPLETE
from repro.errors import ConfigurationError

__all__ = ["ProtocolExplorer", "check_transition", "explore_protocol"]


def _violation(invariant: str, trace: tuple, message: str) -> Violation:
    """Package a counterexample: provenance is the whole action trace."""
    return Violation(
        invariant=invariant,
        trigger_id=max(0, len(trace) - 1),
        message=message,
        provenance=tuple(enumerate(trace)),
    )


def check_transition(before, action, after, info, trace: tuple):
    """Check every safety invariant across one applied transition.

    ``before``/``after`` are :class:`SystemState`s, ``info`` is what
    :func:`apply_action` returned, ``trace`` already ends with
    ``action.label``. Returns the first :class:`Violation` or ``None``.
    """
    b, a = before.coord, after.coord
    label = action.label

    if a.generation < b.generation:
        return _violation(
            GENERATION_MONOTONIC, trace,
            f"after '{label}': generation went backwards "
            f"({b.generation} -> {a.generation})",
        )
    if info["formed"] and a.generation <= b.generation:
        return _violation(
            GENERATION_MONOTONIC, trace,
            f"after '{label}': a generation formed without advancing the "
            f"generation number (still {a.generation})",
        )

    slots = [m.slot for m in a.members.values()]
    ranks = sorted(m.rank for m in a.members.values())
    if len(set(slots)) != len(slots) or len(set(ranks)) != len(ranks):
        return _violation(
            UNIQUE_RANK_PER_SLOT, trace,
            f"after '{label}': two live members share a slot or rank "
            f"(slots {sorted(slots)}, ranks {ranks})",
        )
    # Density is a formation property: evictions legitimately leave
    # holes, but the generation they puncture is fenced, not reused.
    if info["formed"] and ranks != list(range(len(ranks))):
        return _violation(
            UNIQUE_RANK_PER_SLOT, trace,
            f"after '{label}': formed ranks are not a dense 0..world-1 "
            f"assignment (ranks {ranks})",
        )

    for worker, slot, incarnation, _rank in info["formed"]:
        if (slot, incarnation) in before.crashed_lives:
            return _violation(
                INCARNATION_BUMP, trace,
                f"after '{label}': {worker} was admitted with the same "
                f"incarnation {incarnation} as a crashed life of slot "
                f"{slot} — eviction must bump the incarnation on rejoin",
            )
        previous = before.admitted.get(slot)
        if previous is not None and incarnation < previous:
            return _violation(
                INCARNATION_BUMP, trace,
                f"after '{label}': slot {slot} was admitted with "
                f"incarnation {incarnation} after already reaching "
                f"{previous}",
            )

    if info["formed"] and b.fenced:
        left_out = sorted(
            w for w, m in b.members.items()
            if not m.done and w not in a.members
            and before.workers[w].phase in LIVE_PHASES
        )
        if left_out:
            return _violation(
                SURVIVORS_REJOIN, trace,
                f"after '{label}': generation {a.generation} formed "
                f"without {left_out}, live members of generation "
                f"{b.generation} fenced by '{b.fence_reason}'",
            )

    for generation, name in info["released"]:
        if generation != a.generation:
            return _violation(
                NO_SPLIT_BRAIN, trace,
                f"after '{label}': barrier '{name}' of generation "
                f"{generation} released while generation {a.generation} "
                f"is current — two generations are making progress",
            )
        if generation in before.fenced_generations:
            return _violation(
                FENCE_NEVER_PATCH, trace,
                f"after '{label}': barrier '{name}' released in "
                f"generation {generation} after that generation was "
                f"fenced",
            )
        barrier = a.barriers[(generation, name)]
        missing = sorted(set(a.members) - barrier.arrived)
        if missing:
            return _violation(
                BARRIER_RELEASE_FULL, trace,
                f"after '{label}': barrier '{name}' released without "
                f"{missing} of generation {generation}",
            )

    for event_type, _fields in info["events"]:
        if event_type != EVENT_COMPLETE:
            continue
        undone = sorted(
            w for w, m in a.members.items() if not m.done
        )
        if a.fenced or not a.members or undone:
            return _violation(
                COMPLETE_IMPLIES_DONE, trace,
                f"after '{label}': the run completed while "
                f"{undone or 'no members'} had not reported done "
                f"(fenced={a.fenced})",
            )
    return None


class ProtocolExplorer:
    """Exhaustive bounded-depth exploration of the membership protocol."""

    def __init__(self, config: ProtocolConfig | None = None,
                 rules: dict | None = None):
        self.config = config if config is not None else ProtocolConfig()
        self.rules = dict(COORDINATOR_RULES) if rules is None else dict(rules)

    def explore(self, depth: int = 6) -> VerificationResult:
        """BFS every reachable interleaving up to ``depth`` actions."""
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        config, rules = self.config, self.rules
        start = initial_system(config)
        queue = deque([(start, ())])
        visited = {start.key()}
        states = 1
        transitions = 0
        pruned = 0
        deepest = 0
        terminal_complete = 0
        violations: list[Violation] = []

        while queue and not violations:
            system, trace = queue.popleft()
            deepest = max(deepest, len(trace))
            actions = enabled_actions(system, config, rules)
            if not actions:
                if system.coord.complete:
                    terminal_complete += 1
                else:
                    live = live_workers(system)
                    if live:
                        violations.append(_violation(
                            RENDEZVOUS_CONVERGENCE, trace,
                            f"deadlock: workers {live} are live but no "
                            f"action is enabled and the run is not "
                            f"complete (generation "
                            f"{system.coord.generation}, "
                            f"fenced={system.coord.fenced})",
                        ))
                continue
            if len(trace) >= depth:
                continue
            local = [a for a in actions if a.local]
            if local:
                chosen = local[:1]  # commute the first local action
                pruned += len(actions) - 1
            else:
                chosen = actions
            for action in chosen:
                nxt = system.clone()
                info = apply_action(nxt, action, config, rules)
                transitions += 1
                step_trace = trace + (action.label,)
                violation = check_transition(
                    system, action, nxt, info, step_trace
                )
                if violation is not None:
                    violations.append(violation)
                    break
                key = nxt.key()
                if key not in visited:
                    visited.add(key)
                    states += 1
                    queue.append((nxt, step_trace))

        return VerificationResult(
            model_name=(
                f"coordinator-protocol/w{config.world_size}"
                f"s{config.num_slots}/depth{depth}"
            ),
            kind="protocol",
            violations=violations,
            invariants_checked=PROTOCOL_INVARIANTS,
            stats={
                "depth": depth,
                "deepest_trace": deepest,
                "states": states,
                "transitions": transitions,
                "pruned": pruned,
                "terminal_complete": terminal_complete,
            },
        )

    def find(self, predicate, depth: int = 12) -> list | None:
        """Shortest trace reaching a state where ``predicate`` holds.

        ``predicate(system, trace)`` — BFS, so the first hit is minimal.
        Returns the trace as a list of action labels, or ``None`` if no
        state within ``depth`` satisfies it. Reachability probe for
        regression tests (e.g. "fence-resets-grace is reachable").
        """
        config, rules = self.config, self.rules
        start = initial_system(config)
        if predicate(start, ()):
            return []
        queue = deque([(start, ())])
        visited = {start.key()}
        while queue:
            system, trace = queue.popleft()
            if len(trace) >= depth:
                continue
            for action in enabled_actions(system, config, rules):
                nxt = system.clone()
                apply_action(nxt, action, config, rules)
                step_trace = trace + (action.label,)
                if predicate(nxt, step_trace):
                    return list(step_trace)
                key = nxt.key()
                if key not in visited:
                    visited.add(key)
                    queue.append((nxt, step_trace))
        return None


def explore_protocol(depth: int = 6, config: ProtocolConfig | None = None,
                     rules: dict | None = None) -> VerificationResult:
    """One-call entry point (the CLI's ``repro check --protocol``)."""
    return ProtocolExplorer(config=config, rules=rules).explore(depth=depth)
