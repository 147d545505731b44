"""Logical page tables for scheduling.

The scheduler reasons about each rank's parameter shard at page
granularity. ``build_layer_pages`` partitions one rank's FP16 parameter
shard of every layer into logical pages of the configured page size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.memory.page import DEFAULT_PAGE_BYTES
from repro.tracer.tracer import IterationTrace
from repro.zero.sharding import shard_bytes


@dataclass(frozen=True)
class LayerPages:
    """One layer's per-rank parameter-shard pages."""

    layer_index: int
    num_pages: int
    page_bytes: int
    shard_bytes: int
    gathered_bytes: int  # full FP16 params of the layer once all-gathered

    def __post_init__(self) -> None:
        if self.num_pages <= 0:
            raise SchedulingError(
                f"layer {self.layer_index} has no pages; shard too small?"
            )

    def page_nbytes(self, page_id: int) -> int:
        """Physical size of one page.

        Pages are fixed-size (the paper's minimum unit of memory
        operations): a partially-filled tail still reserves a whole page,
        and the scheduler's memory arithmetic must count it as such so
        that physical pools never overflow a plan the model declared
        feasible.
        """
        if not 0 <= page_id < self.num_pages:
            raise SchedulingError(
                f"page {page_id} outside layer {self.layer_index}'s "
                f"{self.num_pages} pages"
            )
        return self.page_bytes


def build_layer_pages(
    trace: IterationTrace,
    num_ranks: int,
    page_bytes: int = DEFAULT_PAGE_BYTES,
) -> list[LayerPages]:
    """Partition each layer's per-rank FP16 parameter shard into pages."""
    if num_ranks <= 0:
        raise SchedulingError("num_ranks must be positive")
    tables: list[LayerPages] = []
    for layer in trace.layers:
        shard = shard_bytes(layer.param_bytes_fp16, num_ranks)
        num_pages = max(1, math.ceil(shard / page_bytes))
        # Gathered buffers are also assembled from pages, so their
        # footprint rounds up to page granularity.
        gathered = math.ceil(layer.param_bytes_fp16 / page_bytes) * page_bytes
        tables.append(
            LayerPages(
                layer_index=layer.layer_index,
                num_pages=num_pages,
                page_bytes=page_bytes,
                shard_bytes=shard,
                gathered_bytes=gathered,
            )
        )
    return tables
