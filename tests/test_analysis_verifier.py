"""Static schedule verifier: proofs on real plans, counterexamples on
adversarial ones."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.analysis.invariants import (
    DOUBLE_FREE,
    DOUBLE_MOVE,
    EVICT_PINNED,
    GATHER_BEFORE_USE,
    OOM_AT_TRIGGER,
    PAGE_SHARING,
    SCHEDULE_INVARIANTS,
    STALENESS_BOUND,
    USE_BEFORE_FETCH,
)
from repro.analysis.verifier import ScheduleVerifier, verify_plan
from repro.errors import ConfigurationError
from repro.hardware.cluster import a100_cluster
from repro.models import get_model
from repro.scheduler import Operation, Schedule, UnifiedScheduler
from repro.scheduler.tasks import ScheduledTask


@pytest.fixture(scope="module")
def planned():
    """The bench workload plan (gpt3-13b) — what CI's check job verifies."""
    scheduler = UnifiedScheduler(a100_cluster(1))
    plan = scheduler.plan(get_model("gpt3-13b"), 4, seq_len=2048)
    return scheduler, plan


def _mutated(plan, tasks):
    """The plan with its schedule replaced by ``tasks``."""
    return dataclasses.replace(plan, schedule=Schedule(list(tasks)))


def _layer_gathers(plan, layer_index):
    """The layer's (forward gather, backward gather), by op id."""
    gathers = sorted(
        (t for t in plan.schedule
         if t.operation == Operation.ALL_GATHER
         and t.layer_index == layer_index),
        key=lambda t: t.op_id,
    )
    assert len(gathers) == 2, "expected one forward and one backward gather"
    return gathers


class TestCleanPlan:
    def test_bench_plan_proves_all_invariants(self, planned):
        scheduler, plan = planned
        result = verify_plan(plan, scheduler.gpu_budget)
        assert result.ok, [v.message for v in result.violations]
        assert result.invariants_checked == SCHEDULE_INVARIANTS
        assert "0 violations" in result.summary()

    def test_small_plan_proves_all_invariants(self):
        scheduler = UnifiedScheduler(a100_cluster(1))
        plan = scheduler.plan(
            get_model("gpt3-1.7b").with_layers(4), 1, seq_len=128
        )
        assert verify_plan(plan, scheduler.gpu_budget).ok

    def test_stats_reflect_replay(self, planned):
        scheduler, plan = planned
        result = verify_plan(plan, scheduler.gpu_budget)
        assert result.stats["tasks"] == len(plan.schedule)
        assert result.stats["num_ops"] == plan.trace.num_ops
        assert 0 < result.stats["peak_live_bytes"] <= scheduler.gpu_budget

    def test_to_dict_is_machine_readable(self, planned):
        scheduler, plan = planned
        payload = verify_plan(plan, scheduler.gpu_budget).to_dict()
        assert payload["ok"] is True
        assert payload["model"] == plan.trace.model_name
        names = [entry["name"] for entry in payload["invariants"]]
        assert names == list(SCHEDULE_INVARIANTS)
        assert all(entry["violations"] == 0 for entry in payload["invariants"])

    def test_bad_update_interval_rejected(self, planned):
        _, plan = planned
        with pytest.raises(ConfigurationError):
            ScheduleVerifier.for_plan(plan, 1 << 40, update_interval=0)


class TestAdversarialSchedules:
    """Each hand-broken schedule yields exactly one counterexample."""

    def test_use_before_fetch(self, planned):
        scheduler, plan = planned
        tasks = list(plan.schedule)
        # Delay one page's staging move past its layer's forward gather
        # (but in time for the backward one): the forward gather finds the
        # page missing; nothing else breaks.
        found = None
        for layer in range(plan.trace.num_layers):
            fwd, bwd = _layer_gathers(plan, layer)
            if fwd.trigger_id < bwd.trigger_id:
                found = (fwd, bwd)
                break
        assert found, "no layer with distinct gather triggers"
        fwd, bwd = found
        index, move = next(
            (i, t) for i, t in enumerate(tasks)
            if t.operation == Operation.MOVE_TO_GPU
            and t.layer_index == fwd.layer_index
        )
        tasks[index] = dataclasses.replace(move, trigger_id=bwd.trigger_id)
        result = verify_plan(_mutated(plan, tasks), scheduler.gpu_budget)
        assert not result.ok
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.invariant == USE_BEFORE_FETCH
        assert violation.trigger_id == fwd.trigger_id
        assert violation.layer_index == move.layer_index
        assert violation.page_id == move.page_id

    def test_evict_pinned_page(self, planned):
        scheduler, plan = planned
        tasks = list(plan.schedule)
        # Inject an eviction inside an advanced forward gather's pin
        # window [trigger, op], with a re-stage before the backward
        # gather so the eviction is the only broken thing.
        found = None
        for layer in range(plan.trace.num_layers):
            fwd, bwd = _layer_gathers(plan, layer)
            if fwd.trigger_id < fwd.op_id < bwd.trigger_id:
                found = (fwd, bwd)
                break
        assert found, "no advanced forward gather with a later backward"
        fwd, bwd = found
        nbytes = plan.layer_pages[fwd.layer_index].page_nbytes(0)
        tasks.append(ScheduledTask(
            Operation.MOVE_TO_CPU, layer_index=fwd.layer_index,
            trigger_id=fwd.op_id, page_id=0, nbytes=nbytes,
        ))
        tasks.append(ScheduledTask(
            Operation.MOVE_TO_GPU, layer_index=fwd.layer_index,
            trigger_id=bwd.trigger_id, page_id=0, nbytes=nbytes,
        ))
        result = verify_plan(_mutated(plan, tasks), scheduler.gpu_budget)
        assert not result.ok
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.invariant == EVICT_PINNED
        assert violation.trigger_id == fwd.op_id
        assert violation.layer_index == fwd.layer_index
        assert violation.page_id == 0
        # Provenance: where the page had been before the bad eviction.
        assert [e[1] for e in violation.provenance] == ["move_to_gpu"]

    def test_mid_step_gpu_overflow(self, planned):
        scheduler, plan = planned
        tasks = list(plan.schedule)
        # Inflate one mid-step gather buffer beyond the whole GPU budget:
        # the ledger overflows exactly over that gather's live window.
        index, gather = next(
            (i, t) for i, t in enumerate(tasks)
            if t.operation == Operation.ALL_GATHER and t.trigger_id > 0
        )
        tasks[index] = dataclasses.replace(
            gather, nbytes=2 * scheduler.gpu_budget
        )
        result = verify_plan(_mutated(plan, tasks), scheduler.gpu_budget)
        assert not result.ok
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.invariant == OOM_AT_TRIGGER
        assert violation.trigger_id == gather.trigger_id

    def test_counterexamples_serialize(self, planned):
        scheduler, plan = planned
        tasks = [
            t for t in plan.schedule
            if not (t.operation == Operation.MOVE_TO_GPU
                    and t.layer_index == 0 and t.page_id == 0)
        ]
        payload = verify_plan(
            _mutated(plan, tasks), scheduler.gpu_budget
        ).to_dict()
        assert payload["ok"] is False
        assert payload["violations"], "dropping a staged page must be caught"
        entry = payload["violations"][0]
        assert {"invariant", "trigger_id", "layer_index", "page_id",
                "tensor_id", "message", "provenance"} <= set(entry)
        assert entry["invariant"] == USE_BEFORE_FETCH


class TestMoveAndGatherInvariants:
    def test_double_move(self, planned):
        scheduler, plan = planned
        tasks = list(plan.schedule)
        move = next(
            t for t in tasks if t.operation == Operation.MOVE_TO_GPU
        )
        duplicate = dataclasses.replace(
            move, trigger_id=move.trigger_id + 1
        )
        tasks.append(duplicate)
        result = verify_plan(_mutated(plan, tasks), scheduler.gpu_budget)
        doubles = result.of(DOUBLE_MOVE)
        assert len(doubles) == 1
        assert doubles[0].trigger_id == duplicate.trigger_id
        assert doubles[0].page_id == move.page_id
        assert [e[1] for e in doubles[0].provenance] == ["move_to_gpu"]

    def test_double_free(self, planned):
        scheduler, plan = planned
        tasks = list(plan.schedule)
        # Layer 0's pages leave the GPU with its backward (the last bwd
        # op); an eviction after that frees a page that is already gone.
        bwd_id = plan.trace.layers[0].bwd_id
        tasks.append(ScheduledTask(
            Operation.MOVE_TO_CPU, layer_index=0,
            trigger_id=bwd_id + 1, page_id=0,
            nbytes=plan.layer_pages[0].page_nbytes(0),
        ))
        result = verify_plan(_mutated(plan, tasks), scheduler.gpu_budget)
        frees = result.of(DOUBLE_FREE)
        assert len(frees) == 1
        assert frees[0].trigger_id == bwd_id + 1
        assert frees[0].page_id == 0

    def test_missing_gather_flagged(self, planned):
        scheduler, plan = planned
        gather = next(
            t for t in plan.schedule if t.operation == Operation.ALL_GATHER
        )
        tasks = [t for t in plan.schedule if t is not gather]
        result = verify_plan(_mutated(plan, tasks), scheduler.gpu_budget)
        missing = result.of(GATHER_BEFORE_USE)
        assert len(missing) == 1
        assert missing[0].trigger_id == gather.op_id

    def test_late_gather_flagged(self, planned):
        scheduler, plan = planned
        tasks = list(plan.schedule)
        index, gather = next(
            (i, t) for i, t in enumerate(tasks)
            if t.operation == Operation.ALL_GATHER
        )
        tasks[index] = dataclasses.replace(
            gather, trigger_id=gather.op_id + 1
        )
        result = verify_plan(_mutated(plan, tasks), scheduler.gpu_budget)
        late = result.of(GATHER_BEFORE_USE)
        assert len(late) == 1
        assert late[0].trigger_id == gather.op_id + 1

    def test_out_of_table_page_rejected(self, planned):
        scheduler, plan = planned
        tasks = list(plan.schedule)
        table = plan.layer_pages[0]
        tasks.append(ScheduledTask(
            Operation.MOVE_TO_GPU, layer_index=0, trigger_id=0,
            page_id=table.num_pages + 3, nbytes=table.page_bytes,
        ))
        result = verify_plan(_mutated(plan, tasks), scheduler.gpu_budget)
        assert len(result.of(PAGE_SHARING)) == 1
        # The invalid task is dropped from the replay: no cascade noise.
        assert len(result.violations) == 1

    def test_partial_page_move_rejected(self, planned):
        scheduler, plan = planned
        tasks = list(plan.schedule)
        index, move = next(
            (i, t) for i, t in enumerate(tasks)
            if t.operation == Operation.MOVE_TO_GPU
        )
        tasks[index] = dataclasses.replace(move, nbytes=move.nbytes // 2)
        result = verify_plan(_mutated(plan, tasks), scheduler.gpu_budget)
        sharing = result.of(PAGE_SHARING)
        assert len(sharing) == 1
        assert "minimum unit" in sharing[0].message


class TestStalenessBound:
    def _verifier(self, layers, accesses=()):
        trace = SimpleNamespace(
            model_name="stub",
            layers=layers,
            pattern=SimpleNamespace(accesses=list(accesses)),
            num_ops=3 * len(layers),
        )
        return ScheduleVerifier(trace, [], Schedule(), 1 << 40)

    def _layer(self, index, num_layers):
        return SimpleNamespace(
            layer_index=index,
            fwd_id=index,
            bwd_id=2 * num_layers - 1 - index,
            update_id=2 * num_layers + (num_layers - 1 - index),
        )

    def test_update_before_backward_flagged(self):
        layers = [self._layer(0, 2), self._layer(1, 2)]
        layers[1] = SimpleNamespace(
            layer_index=1, fwd_id=1, bwd_id=2, update_id=2
        )
        violations = []
        self._verifier(layers)._check_staleness(violations)
        assert [v.invariant for v in violations] == [STALENESS_BOUND]
        assert violations[0].layer_index == 1

    def test_forward_order_updates_flagged(self):
        # Updates increasing with layer index break Algorithm 2's
        # reverse sweep; the out-of-order pair is reported once.
        layers = [
            SimpleNamespace(layer_index=0, fwd_id=0, bwd_id=3, update_id=4),
            SimpleNamespace(layer_index=1, fwd_id=1, bwd_id=2, update_id=5),
        ]
        violations = []
        self._verifier(layers)._check_staleness(violations)
        assert [v.invariant for v in violations] == [STALENESS_BOUND]
        assert violations[0].trigger_id == 5

    def test_param_lifetime_must_reach_update(self):
        layers = [self._layer(0, 1)]
        kind = SimpleNamespace(name="PARAM")
        accesses = [SimpleNamespace(
            layer_index=0, kind=kind, tensor_id=7, name="w", end_id=1,
        )]
        violations = []
        self._verifier(layers, accesses)._check_staleness(violations)
        assert [v.invariant for v in violations] == [STALENESS_BOUND]
        assert violations[0].tensor_id == 7


class TestSmallPlans:
    """Small gpt3-1.7b plans on one A100 server, each proved (or refuted)
    by the verifier against the budget it was planned for."""

    def _plan(self, num_layers=6, micro_batch=2):
        scheduler = UnifiedScheduler(a100_cluster(1))
        config = get_model("gpt3-1.7b").with_layers(num_layers)
        return scheduler, scheduler.plan(config, micro_batch=micro_batch)

    def test_small_plan_verifies_with_expected_counts(self):
        scheduler, plan = self._plan()
        result = verify_plan(plan, scheduler.gpu_budget)
        assert result.ok, [v.message for v in result.violations]
        schedule = plan.schedule
        num_layers = plan.trace.num_layers
        # Every page is staged once; every layer computes and gathers
        # once forward and once backward.
        assert len(schedule.of(Operation.MOVE_TO_GPU)) == sum(
            t.num_pages for t in plan.layer_pages
        )
        assert len(schedule.of(Operation.COMPUTE)) == 2 * num_layers
        assert len(schedule.of(Operation.ALL_GATHER)) == 2 * num_layers
        ops = [t.op_id for t in schedule.of(Operation.COMPUTE)]
        assert sorted(ops) == list(range(2 * num_layers))

    def test_twelve_layer_plan_verifies_within_budget(self):
        scheduler, plan = self._plan(num_layers=12, micro_batch=4)
        result = verify_plan(plan, scheduler.gpu_budget)
        assert result.ok, [v.message for v in result.violations]

    def test_tight_budget_plan_verifies(self):
        """A schedule planned under a tight budget (moves deferred and
        staged in waves) stays within that same budget."""
        from repro.scheduler.cache import CachePlan
        from repro.scheduler.lifetime import LifetimeScheduler
        from repro.scheduler.memory_model import MemoryModel
        from repro.scheduler.pages import build_layer_pages
        from repro.scheduler.unified import IterationPlan
        from repro.tracer import Tracer
        from repro.units import GiB

        scheduler = UnifiedScheduler(a100_cluster(1))
        config = get_model("gpt3-1.7b").with_layers(16)
        trace = Tracer(scheduler.cost).trace(config.build(1, 512))
        pages = build_layer_pages(trace, 1, scheduler.page_bytes)
        budget = int(1.5 * GiB)
        memory = MemoryModel(trace, budget, num_ranks=1)
        schedule = LifetimeScheduler(trace, pages, memory).schedule()
        plan = IterationPlan(
            trace=trace, schedule=schedule,
            cache=CachePlan(frozenset(), 0, {}),
            layer_pages=pages, num_ranks=1, micro_batch=1,
        )
        result = verify_plan(plan, budget)
        assert result.ok, [v.message for v in result.violations]

    def test_dropped_moves_are_use_before_fetch(self):
        scheduler, plan = self._plan()
        tasks = [
            t for t in plan.schedule if t.operation != Operation.MOVE_TO_GPU
        ]
        result = verify_plan(_mutated(plan, tasks), scheduler.gpu_budget)
        assert not result.ok
        assert USE_BEFORE_FETCH in {v.invariant for v in result.violations}

    def test_undersized_budget_is_oom_at_trigger(self):
        from repro.units import MiB

        _, plan = self._plan(num_layers=6, micro_batch=4)
        result = verify_plan(plan, 32 * MiB)
        assert not result.ok
        assert OOM_AT_TRIGGER in {v.invariant for v in result.violations}
