"""Capturing and restoring a functional engine's full training state.

A :class:`~repro.engine.angel.AngelModel`'s FP32 states live only in
paged (possibly file-backed SSD) tensors — exactly what survives the
GPU-failure restart of Section 3.1.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CheckpointError
from repro.checkpoint.snapshot import Snapshot
from repro.memory.tensor import gather, scatter


def capture_engine_state(engine, step: int = 0) -> Snapshot:
    """Snapshot a functional AngelModel from its *paged* tensors.

    The pages are the only copy of the FP32 states (they may live on the
    file-backed SSD tier); reading through them exercises the same path a
    production checkpointer would, once the engine's queued state flushes
    landed: one vectored read per pool for every FP32 state.
    """
    engine.barrier()
    snapshot = Snapshot(
        metadata={
            "step": step,
            "adam_t": engine.optimizer.t,
            "param_names": [m.name for m in engine._managed],
            "iteration": engine._iteration,
            "pending": engine._pending,
        }
    )
    states = _fp32_states(engine)
    arrays = {name: np.empty(t.shape, t.dtype) for name, t in states.items()}
    gather(list(states.values()), list(arrays.values()))
    for managed in engine._managed:
        snapshot.add_array(f"param/{managed.name}", managed.param.data)
        for prefix in ("master", "m", "v"):
            name = f"{prefix}/{managed.name}"
            snapshot.add_array(name, arrays[name])
        snapshot.add_array(
            f"fp16/{managed.name}",
            managed.fp16.read_array().view(np.uint16),
        )
    if engine._pending:
        # Mid-block (lock-free): the gradients buffered since the last
        # sweep are state too; the next sweep folds them in.
        counts = []
        for managed in engine._managed:
            grad, count = engine._buffers.peek(managed.index)
            snapshot.add_array(f"grad/{managed.name}", grad)
            counts.append(count)
        snapshot.metadata["grad_counts"] = counts
    return snapshot


def _fp32_states(engine) -> dict:
    """Snapshot array name -> the engine's paged FP32 state tensor."""
    return {f"{prefix}/{m.name}": getattr(m, attr) for m in engine._managed
            for prefix, attr in (("master", "master"), ("m", "moment1"), ("v", "moment2"))}


def restore_engine_state(snapshot: Snapshot, engine) -> int:
    """Restore a snapshot into a (freshly initialized) AngelModel."""
    engine.barrier()  # no queued flush may land on top of the restore
    names = snapshot.metadata["param_names"]
    current = [m.name for m in engine._managed]
    if names != current:
        raise CheckpointError("engine layout does not match the checkpoint")
    states = _fp32_states(engine)
    scatter(list(states.values()), [snapshot.arrays[name] for name in states])
    for managed in engine._managed:
        managed.param.data[...] = snapshot.arrays[f"param/{managed.name}"]
        managed.fp16.write_array(
            snapshot.arrays[f"fp16/{managed.name}"].view(np.float16)
        )
        if "grad_counts" in snapshot.metadata:
            engine._buffers.load(
                managed.index, snapshot.arrays[f"grad/{managed.name}"],
                snapshot.metadata["grad_counts"][managed.index],
            )
    engine.optimizer.t = int(snapshot.metadata["adam_t"])
    engine._iteration = int(snapshot.metadata["iteration"])
    engine._pending = int(snapshot.metadata["pending"])
    engine._read_ahead.clear()  # those arrays hold pre-restore bytes
    return int(snapshot.metadata["step"])
