"""Server specifications, defaulting to the Table 3 Tencent A100 server."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.hardware.link import LinkKind, LinkSpec
from repro.units import GB, GiB, TB, US


@dataclass(frozen=True)
class ServerSpec:
    """One multi-GPU server with hierarchical memory.

    The per-GPU PCIe links model the paper's "Efficient Movement on
    Distributed Servers" observation (Section 5): every GPU can move data
    to/from CPU memory in parallel over its own PCIe path, which is what
    makes parameter-movement parallelization scale.
    """

    name: str
    gpus: tuple[DeviceSpec, ...]
    cpu: DeviceSpec
    ssd: DeviceSpec | None
    pcie: LinkSpec
    nvlink: LinkSpec
    ssd_io: LinkSpec | None
    nic: LinkSpec

    def __post_init__(self) -> None:
        if not self.gpus:
            raise ConfigurationError("a server needs at least one GPU")
        if self.cpu.kind != DeviceKind.CPU:
            raise ConfigurationError("cpu device must have kind CPU")
        if any(gpu.kind != DeviceKind.GPU for gpu in self.gpus):
            raise ConfigurationError("gpus must all have kind GPU")
        if (self.ssd is None) != (self.ssd_io is None):
            raise ConfigurationError("ssd and ssd_io must be supplied together")
        if self.ssd is not None and self.ssd.kind != DeviceKind.SSD:
            raise ConfigurationError("ssd device must have kind SSD")

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)

    @property
    def gpu_memory_bytes(self) -> int:
        """Total GPU memory across the server."""
        return sum(gpu.memory_bytes for gpu in self.gpus)


def a100_server(
    name: str = "a100",
    num_gpus: int = 8,
    gpu_memory_bytes: int = 40 * GiB,
    cpu_memory_bytes: int = 32 * 32 * GiB,
    ssd_bytes: int | None = 11 * TB,
    pcie_bandwidth: float = 32 * GB,
    nvlink_bandwidth: float = 200 * GB,
    ssd_bandwidth: float = 3.5 * GB,
    nic_bandwidth: float = 16 * 12.5 * GB,
    gpu_flops: float = 312e12,
    cpu_flops: float = 3e12,
) -> ServerSpec:
    """Build the Table 3 server: 8xA100 40GB, 1TiB DDR4, 11TB SSD.

    Bandwidth defaults follow Section 4.3 / Section 6.1: PCIe 32 GB/s,
    NVLink 200 GB/s, SSD 3.5 GB/s, 16x12.5 GB/s RoCE NICs. ``gpu_flops``
    is the A100 dense BF16 peak (312 TFLOP/s).
    """
    gpus = tuple(
        DeviceSpec(
            kind=DeviceKind.GPU,
            name=f"{name}.gpu{i}",
            memory_bytes=gpu_memory_bytes,
            mem_bandwidth=600 * GB,
            compute_flops=gpu_flops,
        )
        for i in range(num_gpus)
    )
    cpu = DeviceSpec(
        kind=DeviceKind.CPU,
        name=f"{name}.cpu",
        memory_bytes=cpu_memory_bytes,
        mem_bandwidth=100 * GB,
        compute_flops=cpu_flops,
    )
    ssd = None
    ssd_io = None
    if ssd_bytes is not None:
        ssd = DeviceSpec(
            kind=DeviceKind.SSD,
            name=f"{name}.ssd",
            memory_bytes=ssd_bytes,
            mem_bandwidth=ssd_bandwidth,
        )
        ssd_io = LinkSpec(
            kind=LinkKind.SSD_IO,
            name=f"{name}.ssd_io",
            bandwidth=ssd_bandwidth,
            latency=100 * US,
            duplex=False,
        )
    return ServerSpec(
        name=name,
        gpus=gpus,
        cpu=cpu,
        ssd=ssd,
        pcie=LinkSpec(LinkKind.PCIE, f"{name}.pcie", pcie_bandwidth, latency=10 * US),
        nvlink=LinkSpec(LinkKind.NVLINK, f"{name}.nvlink", nvlink_bandwidth, latency=5 * US),
        ssd_io=ssd_io,
        nic=LinkSpec(LinkKind.NIC, f"{name}.nic", nic_bandwidth, latency=20 * US),
    )
