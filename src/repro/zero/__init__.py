"""ZeRO-style data parallelism substrate (Sections 2.3 and 3.2).

Angel-PTM adopts data parallelism with parameter sharding: each parameter
is split evenly across GPUs and re-assembled via all-gather just in time
for computation. This package provides the sharding arithmetic, the
collective-communication cost models (ring algorithms over NVLink within a
server, RoCE NICs across servers), and the expert-parallel all-to-all used
by T5-MoE training (Section 6.4).
"""

from repro.zero.collectives import CollectiveModel
from repro.zero.sharding import shard_bytes
from repro.zero.expert_parallel import ExpertParallelPlan

__all__ = ["CollectiveModel", "shard_bytes", "ExpertParallelPlan"]
