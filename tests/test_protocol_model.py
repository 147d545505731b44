"""Protocol model checker: clean proofs on the real rule table,
exactly one minimal counterexample per seeded mutation.

The adversarial tests mirror the schedule verifier's discipline
(``test_analysis_verifier.py``): every mutant must produce exactly one
violation, on the intended invariant, whose provenance is a minimal
action trace naming the offending action.
"""

import pytest

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
)
from repro.analysis.protocol import (
    ProtocolConfig,
    ProtocolExplorer,
    explore_protocol,
)
from repro.cluster import rules as R
from repro.cluster.rules import RULES, BarrierInfo, MemberInfo


def _mutant(**overrides):
    """A copy of the production rule table with entries replaced."""
    table = dict(RULES)
    table.update(overrides)
    return table


def _one_violation(result, invariant):
    """The exactly-one-minimal-counterexample discipline."""
    assert not result.ok
    assert len(result.violations) == 1
    violation = result.violations[0]
    assert violation.invariant == invariant
    trace = [event for _trigger, event in violation.provenance]
    assert trace, "counterexample must carry the action trace"
    # The violation names the action that completed the counterexample.
    assert trace[-1] in violation.message or trace[-1] in str(violation)
    assert violation.trigger_id == len(trace) - 1
    return trace


class TestCleanModel:
    def test_depth6_is_clean_and_fast(self):
        result = explore_protocol(depth=6)
        assert result.ok
        assert result.kind == "protocol"
        assert tuple(result.invariants_checked) == tuple(PROTOCOL_INVARIANTS)
        assert result.stats["states"] > 100
        assert result.stats["transitions"] >= result.stats["states"] - 1

    def test_deeper_exploration_stays_clean(self):
        result = explore_protocol(depth=10)
        assert result.ok
        # Completion is reachable: the model can actually finish a run.
        assert result.stats["terminal_complete"] >= 1

    def test_partial_order_reduction_prunes(self):
        result = explore_protocol(depth=8)
        assert result.ok
        assert result.stats["pruned"] > 0

    def test_summary_names_the_protocol_kind(self):
        result = explore_protocol(depth=4)
        assert "protocol verified" in result.summary()


class TestSeededMutants:
    """Each invariant has teeth: drop its guard, get its counterexample."""

    def test_fence_check_dropped_from_barrier_release(self):
        def no_fence_check(state, worker, name, generation):
            # Mutation: the barrier path no longer honours the fence.
            if generation != state.generation or worker not in state.members:
                return "stale", []
            barrier = state.barriers.setdefault(
                (generation, name), BarrierInfo()
            )
            barrier.arrived.add(worker)
            if barrier.arrived >= set(state.members):
                barrier.released = True
                barrier.rejoin = bool(state.pending)
                return "released", []
            return "wait", []

        result = ProtocolExplorer(
            rules=_mutant(barrier_arrive=no_fence_check)
        ).explore(depth=8)
        trace = _one_violation(result, FENCE_NEVER_PATCH)
        assert trace == [
            "join w0i0", "join w1i0", "form quorum", "crash w0i0",
            "barrier w1i0 step0",
        ]

    def test_early_release_at_quorum_minus_one(self):
        def early_release(state, worker, name, generation):
            if generation != state.generation or worker not in state.members:
                return "stale", []
            if state.fenced:
                return "fenced", []
            barrier = state.barriers.setdefault(
                (generation, name), BarrierInfo()
            )
            barrier.arrived.add(worker)
            if len(barrier.arrived) >= len(state.members) - 1:
                barrier.released = True
                barrier.rejoin = bool(state.pending)
                return "released", []
            return "wait", []

        result = ProtocolExplorer(
            rules=_mutant(barrier_arrive=early_release)
        ).explore(depth=8)
        trace = _one_violation(result, BARRIER_RELEASE_FULL)
        assert len(trace) == 4  # join, join, form, first barrier arrival

    def test_stale_generation_check_dropped(self):
        def zombie_barriers(state, worker, name, generation):
            # Mutation: arrivals from old generations are accepted into
            # their own (generation, name) barrier and may release it.
            if state.fenced and generation == state.generation:
                return "fenced", []
            barrier = state.barriers.setdefault(
                (generation, name), BarrierInfo()
            )
            barrier.arrived.add(worker)
            world = max(1, len(state.members))
            if len(barrier.arrived) >= world:
                barrier.released = True
                barrier.rejoin = bool(state.pending)
                return "released", []
            return "wait", []

        config = ProtocolConfig(
            world_size=2, steps=1, max_crashes=0, max_respawns=0,
            max_expiries=1,
        )
        result = ProtocolExplorer(
            config=config, rules=_mutant(barrier_arrive=zombie_barriers)
        ).explore(depth=11)
        # The minimal zombie: w0 is expired (fencing generation 1), w1
        # re-forms generation 2 alone, then the partitioned w0 arrives
        # at its generation-1 barrier and the mutant releases it.
        trace = _one_violation(result, NO_SPLIT_BRAIN)
        assert trace == [
            "join w0i0", "grace elapses", "form grace", "expire w0i0",
            "join w1i0", "grace elapses", "form grace",
            "barrier w0i0 step0",
        ]

    def test_form_without_generation_advance(self):
        def stuck_generation(state, now):
            events = R.form(state, now)
            state.generation -= 1  # undo the bump: patch, don't advance
            return events

        result = ProtocolExplorer(
            rules=_mutant(form=stuck_generation)
        ).explore(depth=6)
        trace = _one_violation(result, GENERATION_MONOTONIC)
        assert trace[-1].startswith("form")

    def test_form_with_colliding_ranks(self):
        def all_rank_zero(state, now):
            state.generation += 1
            state.fenced = False
            state.fence_reason = None
            state.members = {
                worker: MemberInfo(
                    worker, info["slot"], info["incarnation"], 0,
                )
                for worker, info in state.pending.items()
            }
            state.pending = {}
            return [(R.EVENT_GENERATION, {
                "world": len(state.members),
                "members": {w: m.rank for w, m in state.members.items()},
            })]

        result = ProtocolExplorer(
            rules=_mutant(form=all_rank_zero)
        ).explore(depth=6)
        trace = _one_violation(result, UNIQUE_RANK_PER_SLOT)
        assert trace == ["join w0i0", "join w1i0", "form quorum"]

    def test_respawn_without_incarnation_bump(self):
        result = ProtocolExplorer(
            rules=_mutant(next_incarnation=lambda incarnation: incarnation)
        ).explore(depth=8)
        trace = _one_violation(result, INCARNATION_BUMP)
        assert any(event.startswith("crash") for event in trace)
        assert trace[-1].startswith("form")

    def test_complete_with_one_straggler(self):
        def any_done(state, worker):
            member = state.members.get(worker)
            if member is not None:
                member.done = True
            if (
                not state.fenced and state.members and not state.complete
                and any(m.done for m in state.members.values())
            ):
                state.complete = True
                return True, [(R.EVENT_COMPLETE,
                               {"world": len(state.members)})]
            return state.complete, []

        config = ProtocolConfig(
            world_size=2, steps=1, max_crashes=0, max_respawns=0,
            max_expiries=0,
        )
        result = ProtocolExplorer(
            config=config, rules=_mutant(done=any_done)
        ).explore(depth=8)
        trace = _one_violation(result, COMPLETE_IMPLIES_DONE)
        assert trace == [
            "join w0i0", "join w1i0", "form quorum",
            "barrier w0i0 step0", "barrier w1i0 step0",
            "resolve w0i0 step0", "done w0i0",
        ]

    def test_eviction_without_fence_deadlocks_joiners(self):
        def no_fence_disconnect(state, worker, now):
            # Mutation: a lost worker is silently dropped; the surviving
            # generation is never fenced, so pending joiners starve.
            state.pending.pop(worker, None)
            member = state.members.pop(worker, None)
            if member is None:
                return []
            state.evictions += 1
            return [(R.EVENT_EVICTED,
                     {"worker": worker, "reason": "control connection lost"})]

        config = ProtocolConfig(
            world_size=2, steps=2, max_crashes=1, max_respawns=0,
            max_expiries=0,
        )
        result = ProtocolExplorer(
            config=config, rules=_mutant(disconnect=no_fence_disconnect)
        ).explore(depth=8)
        trace = _one_violation(result, RENDEZVOUS_CONVERGENCE)
        assert trace == [
            "join w0i0", "grace elapses", "form grace", "crash w0i0",
            "join w1i0",
        ]


    def test_grace_formation_that_leaves_out_a_retired_survivor(self):
        def no_survivor_wait(state, now, config):
            # Mutation: after a fence, grace forms around whoever is
            # pending, without waiting for the fenced generation's
            # surviving members to re-join.
            if state.complete or not state.pending:
                return None
            if state.generation > 0 and not state.fenced:
                return None
            if len(state.pending) >= config.world_size:
                return "quorum"
            if (state.last_join is not None
                    and now - state.last_join >= config.rendezvous_grace):
                return "grace"
            return None

        result = ProtocolExplorer(
            rules=_mutant(formation_due=no_survivor_wait)
        ).explore(depth=8)
        trace = _one_violation(result, SURVIVORS_REJOIN)
        assert trace == [
            "join w0i0", "grace elapses", "form grace", "join w1i0",
            "barrier w0i0 step0", "retire w0i0", "grace elapses",
            "form grace",
        ]

    def test_fenced_disconnect_left_in_the_wait_deadlocks(self):
        def keep_fenced_member(state, worker, now):
            # Mutation: a worker lost while its generation is fenced
            # stays a member, so grace formation waits for it forever.
            state.pending.pop(worker, None)
            member = state.members.get(worker)
            if member is None or member.done or state.complete or state.fenced:
                return []
            return R.evict(state, worker, "control connection lost", now)

        config = ProtocolConfig(
            world_size=2, steps=2, max_crashes=1, max_respawns=0,
            max_expiries=1,
        )
        result = ProtocolExplorer(
            config=config, rules=_mutant(disconnect=keep_fenced_member)
        ).explore(depth=8)
        trace = _one_violation(result, RENDEZVOUS_CONVERGENCE)
        assert trace == [
            "join w0i0", "join w1i0", "form quorum", "expire w0i0",
            "barrier w0i0 step0", "crash w1i0", "join w0i0",
            "grace elapses",
        ]


class TestRendezvousAfterFence:
    """The rule table at ``rendezvous_grace=0``, driven step by step:
    a rescale re-forms the whole world, not the first half to arrive."""

    CONFIG = ProtocolConfig(world_size=3, rendezvous_grace=0.0)

    def _first_generation_then_retire(self):
        """w0 forms generation 1 alone; w1 and w2 join behind it; the
        step barrier votes to rescale and w0 retires, fencing it."""
        state = R.MembershipState()
        RULES["join"](state, "w0i0", 0, 0, now=0.0)
        assert RULES["formation_due"](state, 0.0, self.CONFIG) == "grace"
        RULES["form"](state, 0.0)
        RULES["join"](state, "w1i0", 1, 0, now=0.1)
        RULES["join"](state, "w2i0", 2, 0, now=0.1)
        status, _ = RULES["barrier_arrive"](state, "w0i0", "step0", 1)
        assert status == "released"
        assert state.barriers[(1, "step0")].rejoin
        RULES["retire"](state, "w0i0", 1, now=0.2)
        assert state.fenced
        return state

    def test_grace_waits_for_the_retired_survivor(self):
        state = self._first_generation_then_retire()
        assert RULES["formation_due"](state, 5.0, self.CONFIG) is None
        RULES["join"](state, "w0i0", 0, 0, now=0.3)
        assert RULES["formation_due"](state, 0.3, self.CONFIG) == "quorum"
        RULES["form"](state, 0.3)
        assert state.generation == 2
        assert sorted(state.members) == ["w0i0", "w1i0", "w2i0"]

    def test_a_fenced_disconnect_leaves_the_wait(self):
        state = self._first_generation_then_retire()
        assert RULES["disconnect"](state, "w0i0", now=0.3) == []
        assert state.evictions == 0
        assert RULES["formation_due"](state, 0.3, self.CONFIG) == "grace"
        RULES["form"](state, 0.3)
        assert sorted(state.members) == ["w1i0", "w2i0"]


class TestFenceResetsGrace:
    """Regression: the PR-6 fence-resets-grace-clock behavior is both
    reachable and invariant-clean in the model."""

    CONFIG = ProtocolConfig(
        world_size=3, slots=2, steps=1,
        max_crashes=1, max_respawns=1, max_expiries=0,
    )

    def test_second_generation_needs_a_second_grace(self):
        explorer = ProtocolExplorer(config=self.CONFIG)
        # Reachable: a crash fences generation 1, the grace clock
        # restarts, elapses again, and generation 2 forms.
        trace = explorer.find(
            lambda system, _t: (
                system.graces >= 2 and system.coord.generation == 2
            ),
            depth=12,
        )
        assert trace == [
            "join w0i0", "grace elapses", "form grace", "crash w0i0",
            "join w1i0", "grace elapses", "form grace",
        ]
        # Unreachable with a single grace: the fence reset the clock, so
        # generation 2 REQUIRES a second grace elapse. If the fence ever
        # stops restarting the window this probe starts succeeding.
        assert explorer.find(
            lambda system, _t: (
                system.graces == 1 and system.coord.generation == 2
            ),
            depth=12,
        ) is None

    def test_grace_path_formations_stay_invariant_clean(self):
        result = ProtocolExplorer(config=self.CONFIG).explore(depth=10)
        assert result.ok


class TestRulesTableIsShared:
    """The anti-drift property the tentpole is built on."""

    @staticmethod
    def _coordinator(tmp_path, rules=None):
        from repro.cluster.coordinator import Coordinator
        from repro.cluster.protocol import ClusterConfig

        return Coordinator(
            ClusterConfig(world_size=1, steps=1),
            workdir=str(tmp_path), rules=rules,
        )

    def test_coordinator_dispatches_the_same_table(self, tmp_path):
        coordinator = self._coordinator(tmp_path)
        try:
            assert coordinator.rules.keys() == RULES.keys()
            for name, rule in RULES.items():
                assert coordinator.rules[name] is rule
        finally:
            coordinator._events_file.close()

    def test_injected_mutant_table_reaches_the_coordinator(self, tmp_path):
        calls = []

        def spy_heartbeat(state, worker, generation, now, step=None):
            calls.append(worker)
            return R.heartbeat(state, worker, generation, now, step=step)

        coordinator = self._coordinator(
            tmp_path, rules=_mutant(heartbeat=spy_heartbeat)
        )
        try:
            reply = coordinator._op_heartbeat("w0i0", {"generation": 0})
        finally:
            coordinator._events_file.close()
        assert calls == ["w0i0"]
        assert reply["fenced"] is True  # not a member of any generation

    def test_mutations_must_target_dispatched_entries(self):
        """Composition caveat, documented by test: rules compose by
        direct module calls (disconnect -> evict -> fence), so a table
        override of a *callee* never fires through a dispatched caller.
        This is why every mutant above patches the dispatched entry."""
        def no_fence_evict(state, worker, reason, now):
            member = state.members.pop(worker, None)
            if member is None:
                return []
            state.evictions += 1
            return [(R.EVENT_EVICTED,
                     {"worker": worker, "reason": reason})]

        config = ProtocolConfig(
            world_size=2, steps=2, max_crashes=1, max_respawns=0,
            max_expiries=0,
        )
        # A crash dispatches rules["disconnect"], which calls the
        # module-level evict() — the table override is invisible.
        result = ProtocolExplorer(
            config=config, rules=_mutant(evict=no_fence_evict)
        ).explore(depth=8)
        assert result.ok


@pytest.mark.parametrize("depth", [1, 2])
def test_tiny_depths_never_violate(depth):
    result = explore_protocol(depth=depth)
    assert result.ok
    assert result.stats["deepest_trace"] <= depth
