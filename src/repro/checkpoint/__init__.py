"""Checkpointing, recovery and elastic re-sharding.

Section 3.1 of the paper motivates two operational requirements this
package serves:

- **Failure and recovery**: "pre-training tasks would encounter GPU
  failure with a high probability, and should be restarted after
  failure" — an engine's training state (FP32 master parameters, Adam
  moments, the FP16 buffers, buffered gradients and step counters)
  round-trips through durable snapshots
  (:func:`capture_engine_state` / :func:`restore_engine_state`).
- **Seamless scalability**: "when users wish to tune the amount of
  resources for their tasks, there should be no need to re-configure
  their parallel schemes" — ZeRO-sharded state written by K ranks is
  re-sharded (:mod:`repro.checkpoint.reshard`) and restored onto any
  other rank count when a cluster generation forms.
"""

from repro.checkpoint.snapshot import (
    Snapshot,
    latest_good_snapshot,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    save_snapshot,
    snapshot_path,
)
from repro.checkpoint.trainer_state import (
    capture_engine_state,
    restore_engine_state,
)

__all__ = [
    "Snapshot",
    "save_snapshot",
    "load_snapshot",
    "latest_good_snapshot",
    "list_snapshots",
    "prune_snapshots",
    "snapshot_path",
    "capture_engine_state",
    "restore_engine_state",
]
