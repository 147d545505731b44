"""Plan an Algorithm-1 schedule from the live engine's own trace.

The paper's Tracer exploits the iterative nature of training: iteration
1's access pattern predicts every later one (Section 4.2). The functional
engine already records that pattern — the first-touch order of its
parameterized modules — so this module converts it into a genuine
:class:`~repro.tracer.tracer.IterationTrace` and runs the *same* planning
pipeline (:func:`~repro.scheduler.unified.plan_iteration`: page tables,
dynamic GPU cache, memory model, the lifetime scheduler) the analytic
simulator uses. The resulting :class:`IterationPlan` drives the engine's
prefetch worker, and is verifiable with ``repro check --schedule`` /
:func:`repro.analysis.verifier.verify_plan` exactly like a simulated
plan.

Logical-ID convention (matching :mod:`repro.tracer.tracer`): each
distinct parameterized module, in first-touch order, is one "layer" — the
forward of layer ``i`` is op ``i``, its backward op ``2L - 1 - i``, its
update op ``2L + (L - 1 - i)``; an iteration spans ``3L`` ops.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.models.transformer import TensorKind
from repro.scheduler.unified import IterationPlan, plan_iteration
from repro.tracer.access import AccessPattern, TensorAccess
from repro.tracer.tracer import IterationTrace, LayerTrace


def live_layer_modules(engine) -> list:
    """Distinct parameterized modules in first-touch order (the layers)."""
    seen: set[int] = set()
    modules = []
    for module in engine._module_order:
        if id(module) in seen:
            continue  # recompute revisits keep the first-touch slot
        seen.add(id(module))
        modules.append(module)
    return modules


def record_live_trace(engine) -> IterationTrace:
    """Build an :class:`IterationTrace` from the engine's first iteration.

    Byte sizes come from the engine's actual paged tensors (FP16 working
    copies and FP32 master/moment states); activations are not paged by
    the functional engine, so their GPU load contribution is zero and the
    trace records none. Op durations are not needed by the planner or
    verifier and are left at zero — re-simulating a live plan uses the
    analytic cost model instead.
    """
    modules = live_layer_modules(engine)
    if not modules:
        raise ConfigurationError(
            "no recorded module accesses; run one training iteration first"
        )
    num_layers = len(modules)
    num_ops = 3 * num_layers
    accesses: list[TensorAccess] = []
    layers: list[LayerTrace] = []
    next_tensor_id = 0
    for index, module in enumerate(modules):
        fwd_id = index
        bwd_id = 2 * num_layers - 1 - index
        update_id = 2 * num_layers + (num_layers - 1 - index)
        managed = [
            engine._by_param[id(p)] for p in module._parameters.values()
        ]
        param_bytes = sum(m.fp16.nbytes for m in managed)
        optim_bytes = sum(
            m.master.nbytes + m.moment1.nbytes + m.moment2.nbytes
            for m in managed
        )
        param_count = sum(m.param.size for m in managed)
        for m in managed:
            accesses.append(TensorAccess(
                tensor_id=next_tensor_id,
                name=m.name,
                first_id=fwd_id,
                end_id=update_id,
                cpu_time=0.0,
                gpu_time=0.0,
                nbytes=m.fp16.nbytes,
                kind=TensorKind.PARAM,
                layer_index=index,
            ))
            next_tensor_id += 1
            accesses.append(TensorAccess(
                tensor_id=next_tensor_id,
                name=f"{m.name}.grad",
                first_id=bwd_id,
                end_id=update_id,
                cpu_time=0.0,
                gpu_time=0.0,
                nbytes=m.fp16.nbytes,
                kind=TensorKind.PARAM,
                layer_index=index,
            ))
            next_tensor_id += 1
            accesses.append(TensorAccess(
                tensor_id=next_tensor_id,
                name=f"{m.name}.optim",
                first_id=update_id,
                end_id=update_id,
                cpu_time=0.0,
                gpu_time=0.0,
                nbytes=m.master.nbytes + m.moment1.nbytes + m.moment2.nbytes,
                kind=TensorKind.OPTIM,
                layer_index=index,
            ))
            next_tensor_id += 1
        layers.append(LayerTrace(
            layer_index=index,
            name=type(module).__name__,
            fwd_id=fwd_id,
            bwd_id=bwd_id,
            update_id=update_id,
            fwd_time=0.0,
            bwd_time=0.0,
            recompute_time=0.0,
            cpu_update_time=0.0,
            gpu_update_time=0.0,
            param_bytes_fp16=param_bytes,
            grad_bytes_fp16=param_bytes,
            optim_bytes_fp32=optim_bytes,
            act_bytes_fp16=0,
            param_count=param_count,
        ))
    pattern = AccessPattern(accesses=tuple(accesses), num_ops=num_ops)
    return IterationTrace(
        model_name=f"live:{type(engine.module).__name__}",
        pattern=pattern,
        layers=tuple(layers),
        batch_size=0,
        seq_len=0,
    )


def build_live_plan(engine, telemetry=None) -> IterationPlan:
    """Plan the engine's recorded iteration with the unified pipeline.

    The GPU budget is the engine's configured GPU pool; one rank is
    planned (the functional engine trains a single rank; under ZeRO data
    parallelism ranks are symmetric).
    """
    trace = record_live_trace(engine)
    return plan_iteration(
        trace,
        gpu_budget_bytes=engine.config.gpu_memory_bytes,
        num_ranks=1,
        page_bytes=engine.config.page_bytes,
        micro_batch=1,
        use_recompute=False,
        telemetry=telemetry,
    )


def run_live_plan() -> tuple[IterationPlan, int]:
    """Train ``repro train --pipeline``'s workload for three steps;
    returns ``(plan, gpu_budget_bytes)``.

    The plan is ``engine.executed_plan()``, the exact object the live
    prefetch worker consumed rather than a re-plan, so a verifier
    certifies what actually ran.
    """
    from repro.fleet.factory import JobFactory, engine_config

    factory = JobFactory()
    config = engine_config(pipeline=True)
    with factory.engine(config) as engine:
        factory.train(engine, 3)
        return engine.executed_plan(), config.gpu_memory_bytes
