"""The live runtime of an Algorithm-1 schedule (Section 5).

The Unified Scheduler emits a static ``{operation, page, trigger_id}``
task plan. Inside the training engine, the background prefetch worker
releases that plan's page movements ahead of the compute that needs them,
and the async writeback queue returns evicted pages, overlapping page
movement with compute. The plan's feasibility (no OOM, every page present
before its gather) is proved statically by
:mod:`repro.analysis.verifier`.

``ioproc`` is an out-of-process page-copy service that only the
benchmark's ladder measures.
"""

from repro.runtime.pipeline import (
    MoveGroup,
    PrefetchWorker,
    WritebackQueue,
    coalesce_schedule,
)

__all__ = [
    "MoveGroup",
    "PrefetchWorker",
    "WritebackQueue",
    "coalesce_schedule",
]
