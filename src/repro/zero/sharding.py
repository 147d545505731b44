"""ZeRO-3-style even parameter sharding (Section 3.2, "Parameter Sharding").

"We adopt the parameter sharding approach proposed by ZeRO, which evenly
splits each parameter among multiple GPUs. When a parameter needs to be
calculated, the complete parameter is obtained through an all-gather
operation."
"""

from __future__ import annotations

import math

from repro.errors import ShardingError


def shard_bytes(total_bytes: int, num_ranks: int, page_bytes: int = 1) -> int:
    """Per-rank bytes after even sharding, rounded up to page granularity."""
    if num_ranks <= 0:
        raise ShardingError("num_ranks must be positive")
    if total_bytes < 0:
        raise ShardingError("total_bytes must be >= 0")
    per_rank = math.ceil(total_bytes / num_ranks)
    if page_bytes > 1:
        per_rank = math.ceil(per_rank / page_bytes) * page_bytes
    return per_rank
