"""Interconnect topology graph.

GPU servers have a complex interconnect topology (Section 5 of the paper:
two CPUs, four PCIe switches, eight GPUs on an A100 server). We model the
topology as a graph whose nodes are devices and whose edges are links, so
that multi-hop routes (e.g. GPU -> CPU -> SSD) are derived rather than
hard-coded.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import ConfigurationError
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.hardware.link import LinkSpec
from repro.hardware.server import ServerSpec


class Topology:
    """Device/link graph for one server.

    Edges carry the :class:`LinkSpec` used between the endpoints. Routing
    picks the minimum-transfer-time path for a nominal page-sized payload,
    which naturally stages GPU<->SSD traffic through the CPU.
    """

    def __init__(self, server: ServerSpec):
        self._server = server
        self._graph = nx.Graph()
        self._devices: dict[str, DeviceSpec] = {}
        self._build()

    def _add_device(self, device: DeviceSpec) -> None:
        self._devices[device.name] = device
        self._graph.add_node(device.name, device=device)

    def _add_link(self, a: DeviceSpec, b: DeviceSpec, link: LinkSpec) -> None:
        nominal_page = 4 * 1024 * 1024
        self._graph.add_edge(
            a.name, b.name, link=link, cost=link.transfer_time(nominal_page)
        )

    def _build(self) -> None:
        server = self._server
        self._add_device(server.cpu)
        for gpu in server.gpus:
            self._add_device(gpu)
            self._add_link(gpu, server.cpu, server.pcie)
        for i, gpu_a in enumerate(server.gpus):
            for gpu_b in server.gpus[i + 1:]:
                self._add_link(gpu_a, gpu_b, server.nvlink)
        if server.ssd is not None and server.ssd_io is not None:
            self._add_device(server.ssd)
            self._add_link(server.cpu, server.ssd, server.ssd_io)

    def device(self, name: str) -> DeviceSpec:
        try:
            return self._devices[name]
        except KeyError:
            raise ConfigurationError(f"unknown device {name!r}") from None

    def devices_of_kind(self, kind: DeviceKind) -> list[DeviceSpec]:
        return [d for d in self._devices.values() if d.kind == kind]

    def route(self, src: str, dst: str) -> list[LinkSpec]:
        """Links along the cheapest path from ``src`` to ``dst``."""
        if src not in self._devices or dst not in self._devices:
            raise ConfigurationError(f"unknown endpoint in route {src} -> {dst}")
        if src == dst:
            return []
        try:
            path = nx.shortest_path(self._graph, src, dst, weight="cost")
        except nx.NetworkXNoPath:
            raise ConfigurationError(f"no route between {src} and {dst}") from None
        return [
            self._graph.edges[a, b]["link"] for a, b in zip(path, path[1:])
        ]

    def transfer_time(self, src: str, dst: str, num_bytes: int) -> float:
        """Serialized multi-hop transfer time for ``num_bytes``."""
        return sum(link.transfer_time(num_bytes) for link in self.route(src, dst))


class ClusterTopology(Topology):
    """Multi-server topology: per-server device graphs joined by NICs.

    Cross-server routes go GPU -> (NVLink/PCIe local) -> NIC -> remote
    server, reflecting that RoCE traffic leaves through the host NICs
    (Section 6.1's 16-NIC servers are modelled as one aggregate link).
    """

    def __init__(self, cluster):
        from repro.hardware.cluster import ClusterSpec

        if not isinstance(cluster, ClusterSpec):
            raise ConfigurationError("ClusterTopology takes a ClusterSpec")
        self._cluster = cluster
        self._graph = nx.Graph()
        self._devices = {}
        template = cluster.server
        cpu_names = []
        for index in range(cluster.num_servers):
            from repro.hardware.server import a100_server

            server = a100_server(
                name=f"{template.name}{index}",
                num_gpus=template.num_gpus,
                gpu_memory_bytes=template.gpus[0].memory_bytes,
                cpu_memory_bytes=template.cpu.memory_bytes,
                ssd_bytes=(
                    template.ssd.memory_bytes if template.ssd is not None else None
                ),
                pcie_bandwidth=template.pcie.bandwidth,
                nvlink_bandwidth=template.nvlink.bandwidth,
                nic_bandwidth=template.nic.bandwidth,
            )
            self._server = server
            self._build()
            cpu_names.append(server.cpu.name)
        # The RoCE fabric is switched: any server pair is one NIC
        # traversal apart, so CPUs form a complete graph over the NIC.
        nic = template.nic
        for i, cpu_a in enumerate(cpu_names):
            for cpu_b in cpu_names[i + 1:]:
                self._graph.add_edge(
                    cpu_a, cpu_b, link=nic,
                    cost=nic.transfer_time(4 * 1024 * 1024),
                )

    @property
    def num_servers(self) -> int:
        return self._cluster.num_servers
