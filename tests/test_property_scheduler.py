"""Property-based tests: Algorithm 1's schedules are always executable.

The strongest invariant in the system: for ANY model shape and ANY GPU
budget under which Phase 1 succeeds, the emitted schedule must verify —
replayed symbolically against the same budget, it never runs out of
memory and never gathers a layer whose pages are absent. This is the
contract between the planner's byte arithmetic and the runtime.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.verifier import verify_plan
from repro.errors import OutOfMemoryError
from repro.hardware.cluster import a100_cluster
from repro.models import get_model
from repro.scheduler.cache import CachePlan
from repro.scheduler.lifetime import LifetimeScheduler
from repro.scheduler.memory_model import MemoryModel
from repro.scheduler.pages import build_layer_pages
from repro.scheduler.tasks import Operation
from repro.scheduler.unified import IterationPlan, UnifiedScheduler
from repro.tracer import Tracer
from repro.units import GiB


@settings(max_examples=25, deadline=None)
@given(
    num_layers=st.integers(min_value=2, max_value=20),
    batch=st.integers(min_value=1, max_value=4),
    budget_gib=st.floats(min_value=0.7, max_value=4.0),
    num_ranks=st.sampled_from([1, 2, 8]),
)
def test_any_feasible_schedule_replays_within_budget(
    num_layers, batch, budget_gib, num_ranks
):
    cluster = a100_cluster(1)
    scheduler = UnifiedScheduler(cluster)
    config = get_model("gpt3-1.7b").with_layers(num_layers)
    trace = Tracer(scheduler.cost).trace(config.build(batch, 512))
    pages = build_layer_pages(trace, num_ranks, scheduler.page_bytes)
    budget = int(budget_gib * GiB)
    memory = MemoryModel(trace, budget, num_ranks=num_ranks)
    try:
        schedule = LifetimeScheduler(trace, pages, memory).schedule()
    except OutOfMemoryError:
        # The planner declared the configuration infeasible — fine.
        return
    plan = IterationPlan(
        trace=trace, schedule=schedule, cache=CachePlan(frozenset(), 0, {}),
        layer_pages=pages, num_ranks=num_ranks, micro_batch=batch,
    )
    result = verify_plan(plan, budget)
    assert result.ok, [v.message for v in result.violations]

    # Structural invariants of the emitted schedule.
    assert len(schedule.of(Operation.COMPUTE)) == 2 * trace.num_layers
    assert len(schedule.of(Operation.ALL_GATHER)) == 2 * trace.num_layers
    # Every eviction is matched by a later re-staging of the same page.
    staged = {}
    for task in schedule.tasks:
        key = (task.layer_index, task.page_id)
        if task.operation == Operation.MOVE_TO_GPU:
            staged[key] = staged.get(key, 0) + 1
        elif task.operation == Operation.MOVE_TO_CPU:
            staged[key] = staged.get(key, 0) - 1
    assert all(count >= 0 for count in staged.values())
    # Gathers never trigger after their compute op.
    for task in schedule.of(Operation.ALL_GATHER):
        assert task.trigger_id <= task.op_id
