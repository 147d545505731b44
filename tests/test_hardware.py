"""Hardware specs: devices, links, servers, clusters."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import (
    ClusterSpec,
    DeviceKind,
    DeviceSpec,
    LinkKind,
    LinkSpec,
    a100_server,
)
from repro.hardware.cluster import a100_cluster
from repro.units import GB, GiB


class TestDeviceSpec:
    def test_device_kind_matches_paper_indices(self):
        assert int(DeviceKind.GPU) == 0
        assert int(DeviceKind.CPU) == 1
        assert int(DeviceKind.SSD) == 2

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ConfigurationError):
            DeviceSpec(DeviceKind.GPU, "g", 0, 1.0)

    def test_rejects_computing_ssd(self):
        with pytest.raises(ConfigurationError):
            DeviceSpec(DeviceKind.SSD, "s", 1, 1.0, compute_flops=1.0)


class TestLinkSpec:
    def test_transfer_time_includes_latency(self):
        link = LinkSpec(LinkKind.PCIE, "p", bandwidth=32 * GB, latency=1e-5)
        assert link.transfer_time(32 * GB) == pytest.approx(1.0 + 1e-5)

    def test_zero_bytes_is_free(self):
        link = LinkSpec(LinkKind.PCIE, "p", bandwidth=1.0, latency=5.0)
        assert link.transfer_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        link = LinkSpec(LinkKind.PCIE, "p", bandwidth=1.0)
        with pytest.raises(ConfigurationError):
            link.transfer_time(-1)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(LinkKind.NIC, "n", bandwidth=0.0)


class TestA100Server:
    def test_table3_defaults(self):
        server = a100_server()
        assert server.num_gpus == 8
        assert server.gpus[0].memory_bytes == 40 * GiB
        assert server.cpu.memory_bytes == 32 * 32 * GiB
        assert server.pcie.bandwidth == 32 * GB
        assert server.ssd_io.bandwidth == pytest.approx(3.5 * GB)
        assert server.nic.bandwidth == pytest.approx(16 * 12.5 * GB)

    def test_server_without_ssd(self):
        server = a100_server(ssd_bytes=None)
        assert server.ssd is None
        assert server.ssd_io is None


class TestClusterSpec:
    def test_gpu_count_scales(self):
        assert a100_cluster(4).num_gpus == 32

    def test_rejects_zero_servers(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(server=a100_server(), num_servers=0)
