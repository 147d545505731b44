"""Protocol-level static analysis: model-check the cluster coordinator.

Three verifiers extend the PR-4 schedule prong to the distributed layer:

- :mod:`~repro.analysis.protocol.model` /
  :mod:`~repro.analysis.protocol.explorer` — a pure state-machine model
  of the rendezvous coordinator driven by the *same* transition-rule
  table as :class:`repro.cluster.coordinator.Coordinator`, explored
  exhaustively to a bounded depth against the membership invariant
  catalog (:data:`repro.analysis.invariants.PROTOCOL_INVARIANTS`);
- :mod:`~repro.analysis.protocol.collective_verifier` — post-hoc replay
  of a real cluster workdir's membership log and per-rank telemetry
  streams (fencing discipline, executed collectives agreeing per step).
"""

from repro.analysis.protocol.collective_verifier import verify_cluster_workdir
from repro.analysis.protocol.explorer import ProtocolExplorer, explore_protocol
from repro.analysis.protocol.model import ProtocolConfig, SystemState, WorkerModel

__all__ = [
    "ProtocolConfig",
    "ProtocolExplorer",
    "SystemState",
    "WorkerModel",
    "explore_protocol",
    "verify_cluster_workdir",
]
