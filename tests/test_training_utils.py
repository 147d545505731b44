"""Cluster config I/O."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.hardware.config_io import cluster_from_dict, load_cluster
from repro.hardware.cluster import a100_cluster
from repro.units import GB, GiB


class TestClusterConfigIO:
    def test_roundtrip_default_cluster(self, tmp_path):
        cluster = a100_cluster(3)
        path = tmp_path / "cluster.json"
        with path.open("w", encoding="utf-8") as handle:
            json.dump({"num_servers": 3}, handle)  # every server field: Table 3
        loaded = load_cluster(str(path))
        assert loaded.num_servers == 3
        assert loaded.num_gpus == 24
        assert loaded.server.gpus[0].memory_bytes == cluster.server.gpus[0].memory_bytes
        assert loaded.server.pcie.bandwidth == cluster.server.pcie.bandwidth
        assert loaded.server.ssd.memory_bytes == cluster.server.ssd.memory_bytes

    def test_custom_fields(self):
        cluster = cluster_from_dict({
            "num_servers": 2,
            "server": {
                "num_gpus": 4,
                "gpu_memory_gib": 80,
                "nvlink_gbps": 300,
                "ssd_tb": None,
            },
        })
        assert cluster.num_gpus == 8
        assert cluster.server.gpus[0].memory_bytes == 80 * GiB
        assert cluster.server.nvlink.bandwidth == 300 * GB
        assert cluster.server.ssd is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            cluster_from_dict({"server": {"quantum_links": 5}})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigurationError, match="num_server"):
            cluster_from_dict({"num_server": 4})

    @pytest.mark.parametrize("num_servers", ["4", 0, -1, 2.0, True, None])
    def test_num_servers_must_be_positive_int(self, num_servers):
        with pytest.raises(ConfigurationError, match="num_servers"):
            cluster_from_dict({"num_servers": num_servers})

    def test_cli_rejects_bad_cluster_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "c.json"
        path.write_text(json.dumps({"num_servers": "4"}))
        assert main(["plan", "--model", "gpt3-1.7b", "--cluster", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("plan: ") and captured.err.count("\n") == 1

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError):
            load_cluster(str(path))

    def test_cli_accepts_cluster_file(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "c.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"num_servers": 2}, handle)
        assert main(["simulate", "--model", "gpt3-1.7b", "--batch", "2",
                     "--cluster", path]) == 0
        assert "16 GPUs" in capsys.readouterr().out
