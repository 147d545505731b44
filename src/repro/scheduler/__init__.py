"""The Unified Scheduler (Section 4.2 of the paper).

The scheduler consumes the Tracer's life-time statistics and produces a
task schedule ``{operation, page, trigger_id}`` via the two-phase
fine-grained life-time based scheduling of Algorithm 1. The
:class:`UnifiedScheduler` then coordinates the Allocator (page movements),
Executor (compute streams) and Communicator (collectives) to replay that
schedule, either on the discrete-event simulator (paper-scale experiments)
or against the functional memory tiers (the engine's prefetch worker).
"""

from repro.scheduler.tasks import Operation, Schedule, ScheduledTask
from repro.scheduler.pages import LayerPages, build_layer_pages
from repro.scheduler.memory_model import MemoryModel
from repro.scheduler.lifetime import LifetimeScheduler
from repro.scheduler.cache import CachePlan, plan_gpu_cache
from repro.scheduler.unified import IterationPlan, IterationResult, UnifiedScheduler, plan_iteration

__all__ = [
    "IterationPlan",
    "plan_iteration",
    "Operation",
    "ScheduledTask",
    "Schedule",
    "LayerPages",
    "build_layer_pages",
    "MemoryModel",
    "LifetimeScheduler",
    "CachePlan",
    "plan_gpu_cache",
    "UnifiedScheduler",
    "IterationResult",
]
