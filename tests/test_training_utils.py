"""LR schedules, gradient clipping, cluster config I/O."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.config_io import (
    cluster_from_dict,
    cluster_to_dict,
    load_cluster,
    save_cluster,
)
from repro.hardware.cluster import a100_cluster
from repro.nn import Adam, Tensor
from repro.nn.schedule import ConstantLR, WarmupCosineLR, WarmupLinearLR, clip_grad_norm
from repro.units import GB, GiB


class TestClipGradNorm:
    def _params(self, *grads):
        params = []
        for grad in grads:
            p = Tensor(np.zeros_like(grad), requires_grad=True)
            p.grad = np.asarray(grad, dtype=np.float32)
            params.append(p)
        return params

    def test_returns_preclip_norm(self):
        params = self._params([3.0], [4.0])
        norm = clip_grad_norm(params, max_norm=100.0)
        assert norm == pytest.approx(5.0)
        # Under the limit: untouched.
        np.testing.assert_allclose(params[0].grad, [3.0])

    def test_scales_down_to_max_norm(self):
        params = self._params([3.0], [4.0])
        clip_grad_norm(params, max_norm=1.0)
        total = sum(float((p.grad ** 2).sum()) for p in params)
        assert np.sqrt(total) == pytest.approx(1.0, rel=1e-5)

    def test_skips_missing_grads(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        assert clip_grad_norm([p], max_norm=1.0) == 0.0

    def test_invalid_max_norm(self):
        with pytest.raises(ConfigurationError):
            clip_grad_norm([], max_norm=0.0)


class TestSchedules:
    def test_constant(self):
        schedule = ConstantLR(0.1)
        assert schedule.lr_at(0) == schedule.lr_at(1000) == 0.1

    def test_warmup_cosine_shape(self):
        schedule = WarmupCosineLR(1.0, warmup_steps=10, total_steps=110, min_lr=0.1)
        assert schedule.lr_at(0) == pytest.approx(0.1, rel=0.2)  # ramping
        assert schedule.lr_at(9) == pytest.approx(1.0)           # warmup end
        assert schedule.lr_at(60) < 1.0                          # decaying
        assert schedule.lr_at(10_000) == pytest.approx(0.1)      # floor

    def test_warmup_is_monotone(self):
        schedule = WarmupCosineLR(1.0, warmup_steps=20, total_steps=100)
        rates = [schedule.lr_at(s) for s in range(20)]
        assert rates == sorted(rates)

    def test_warmup_linear_hits_zero(self):
        schedule = WarmupLinearLR(0.5, warmup_steps=5, total_steps=50)
        assert schedule.lr_at(50) == 0.0
        assert schedule.lr_at(4) == pytest.approx(0.5)

    def test_apply_sets_optimizer_lr(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        optimizer = Adam([p], lr=9.0)
        schedule = ConstantLR(0.25)
        assert schedule.apply(optimizer, step=3) == 0.25
        assert optimizer.lr == 0.25

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            WarmupCosineLR(1.0, warmup_steps=10, total_steps=10)
        with pytest.raises(ConfigurationError):
            WarmupCosineLR(1.0, warmup_steps=1, total_steps=5, min_lr=2.0)
        with pytest.raises(ConfigurationError):
            ConstantLR(0.0)


class TestClusterConfigIO:
    def test_roundtrip_default_cluster(self, tmp_path):
        cluster = a100_cluster(3)
        path = str(tmp_path / "cluster.json")
        save_cluster(cluster, path)
        loaded = load_cluster(path)
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

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError):
            load_cluster(str(path))

    def test_serialized_dict_is_json_safe(self):
        json.dumps(cluster_to_dict(a100_cluster(1)))

    def test_cli_accepts_cluster_file(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "c.json")
        save_cluster(a100_cluster(2), path)
        assert main(["simulate", "--model", "gpt3-1.7b", "--batch", "2",
                     "--cluster", path]) == 0
        assert "16 GPUs" in capsys.readouterr().out
