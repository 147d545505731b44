"""Functional in-process ZeRO-3 and expert parallelism.

:class:`Zero3Engine` shards every parameter across K simulated ranks
(Section 3.2); :class:`ExpertParallelTrainer` shards MoE experts. The
ZeRO data-parallel step itself is :func:`repro.cluster.worker.zero_step`.
"""

from repro.dp.zero3 import Zero3Engine
from repro.dp.expert import ExpertParallelTrainer

__all__ = ["Zero3Engine", "ExpertParallelTrainer"]
