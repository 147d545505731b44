"""Device specifications for the hierarchical memory (Figure 1 of the paper).

The paper's device indexing convention (Figure 3) is ``{0: GPU, 1: CPU,
2: SSD}``; :class:`DeviceKind` preserves those integer values so page and
tensor structures can round-trip them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError


class DeviceKind(enum.IntEnum):
    """Memory tier, with integer values matching the paper's device_map."""

    GPU = 0
    CPU = 1
    SSD = 2


@dataclass(frozen=True)
class DeviceSpec:
    """A single memory/compute device.

    Attributes:
        kind: which tier this device belongs to.
        name: unique name within a server, e.g. ``gpu0``.
        memory_bytes: usable capacity of this tier.
        mem_bandwidth: local memory bandwidth in bytes/s (HBM for GPUs,
            DDR for CPUs, raw flash bandwidth for SSDs).
        compute_flops: peak dense FP16/BF16 throughput in FLOP/s for compute
            devices; 0 for storage-only devices.
    """

    kind: DeviceKind
    name: str
    memory_bytes: int
    mem_bandwidth: float
    compute_flops: float = 0.0

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ConfigurationError(f"{self.name}: memory_bytes must be positive")
        if self.mem_bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: mem_bandwidth must be positive")
        if self.compute_flops < 0:
            raise ConfigurationError(f"{self.name}: compute_flops must be >= 0")
        if self.kind == DeviceKind.SSD and self.compute_flops:
            raise ConfigurationError(f"{self.name}: SSD devices cannot compute")
