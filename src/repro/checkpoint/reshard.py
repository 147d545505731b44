"""Elastic re-sharding of ZeRO-partitioned flat state.

The paper's seamless-scalability requirement (Section 1): scaling a job
from K to N GPUs must not require re-configuring the parallel scheme.
Under ZeRO, each rank owns a contiguous 1/K slice of every flattened
state tensor; re-sharding concatenates the slices and re-splits them for
the new rank count. Elementwise optimizers (Adam) make this exact — no
state is recomputed. The cluster re-shards this way whenever a
generation forms (:func:`repro.cluster.worker.load_rank_state`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CheckpointError, ShardingError


def split_even(array: np.ndarray, num_ranks: int) -> list[np.ndarray]:
    """Split a flat array into ``num_ranks`` shards, padding the tail.

    ZeRO pads the flattened state so every rank holds the same shard
    size; the pad is tracked and stripped on merge.
    """
    if array.ndim != 1:
        raise ShardingError("shards operate on flattened state")
    if num_ranks <= 0:
        raise ShardingError("num_ranks must be positive")
    shard_len = -(-array.size // num_ranks)  # ceil
    padded = np.zeros(shard_len * num_ranks, dtype=array.dtype)
    padded[:array.size] = array
    return [
        padded[rank * shard_len:(rank + 1) * shard_len].copy()
        for rank in range(num_ranks)
    ]


def merge_shards(shards: list[np.ndarray], true_size: int) -> np.ndarray:
    """Concatenate rank shards and strip the padding."""
    if not shards:
        raise ShardingError("no shards to merge")
    merged = np.concatenate(shards)
    if merged.size < true_size:
        raise CheckpointError(
            f"shards cover {merged.size} elements, expected {true_size}"
        )
    return merged[:true_size].copy()
