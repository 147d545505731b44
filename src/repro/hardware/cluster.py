"""Cluster specification: homogeneous servers joined by RoCE NICs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.server import ServerSpec, a100_server


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of :class:`ServerSpec` nodes.

    The evaluation scales from 1 server (Table 5) to 96 servers / 768 GPUs
    (Figure 8); this class captures everything the cost models need about
    that scaling: GPU count, aggregate CPU update capacity, aggregate PCIe
    lanes, and the inter-server NIC bandwidth.
    """

    server: ServerSpec
    num_servers: int

    def __post_init__(self) -> None:
        if self.num_servers <= 0:
            raise ConfigurationError("num_servers must be positive")

    @property
    def num_gpus(self) -> int:
        return self.server.num_gpus * self.num_servers

    @property
    def gpu_memory_bytes(self) -> int:
        return self.server.gpu_memory_bytes * self.num_servers

    @property
    def cpu_memory_bytes(self) -> int:
        return self.server.cpu.memory_bytes * self.num_servers

    @property
    def ssd_bytes(self) -> int:
        if self.server.ssd is None:
            return 0
        return self.server.ssd.memory_bytes * self.num_servers


def a100_cluster(num_servers: int, **server_kwargs) -> ClusterSpec:
    """Convenience constructor for a cluster of Table 3 servers."""
    return ClusterSpec(server=a100_server(**server_kwargs), num_servers=num_servers)
