"""Elastic multi-process training: rendezvous, heartbeats, recovery.

The paper's reliability story (Section 3.1) made concrete with real OS
processes: a generation-numbered rendezvous :class:`Coordinator`, worker
processes exchanging page-granularity collectives over shared memory
(:class:`SharedMemoryTransport`), a heartbeat failure detector whose
evictions *fence* the running generation, and a supervisor
(:func:`run_cluster`) that respawns the dead into the next generation.
Recovery is resume: survivors re-shard the newest crash-consistent
checkpoint for the shrunken world and replay — exact for elementwise
Adam, so a killed-and-healed run converges with the fault-free
reference (:func:`run_cluster_reference`).
The same ZeRO step also runs on thread ranks of one process
(:func:`run_cluster_in_process`), checkpointing the same way.
"""

from repro.cluster.coordinator import Coordinator, coordinator_main
from repro.cluster.protocol import ClusterConfig, worker_id
from repro.cluster.supervisor import ClusterReport, run_cluster
from repro.cluster.transport import SharedMemoryTransport
from repro.cluster.worker import (
    CoordinatorClient,
    HeartbeatPump,
    run_cluster_in_process,
    run_cluster_reference,
    run_worker,
    worker_entry,
)

__all__ = [
    "ClusterConfig",
    "ClusterReport",
    "Coordinator",
    "CoordinatorClient",
    "HeartbeatPump",
    "SharedMemoryTransport",
    "coordinator_main",
    "run_cluster",
    "run_cluster_in_process",
    "run_cluster_reference",
    "run_worker",
    "worker_entry",
    "worker_id",
]
