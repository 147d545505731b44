"""ZeRO substrate: sharding arithmetic, collectives, expert parallelism."""

import pytest

from repro.errors import CommunicationError, ShardingError
from repro.hardware.cluster import a100_cluster
from repro.models.moe import MoEConfig
from repro.units import GB, MiB
from repro.zero import CollectiveModel, ExpertParallelPlan, shard_bytes


class TestShardBytes:
    def test_even_split(self):
        assert shard_bytes(800, 8) == 100

    def test_rounds_up(self):
        assert shard_bytes(801, 8) == 101

    def test_page_alignment(self):
        assert shard_bytes(100, 4, page_bytes=64) == 64
        assert shard_bytes(1000, 4, page_bytes=64) == 256

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ShardingError):
            shard_bytes(100, 0)


class TestCollectives:
    @pytest.fixture
    def single(self):
        return CollectiveModel(a100_cluster(1))

    @pytest.fixture
    def multi(self):
        return CollectiveModel(a100_cluster(4))

    def test_single_rank_is_free(self, single):
        assert single.all_gather(MiB, 1) == 0.0
        assert single.all_reduce(MiB, 1) == 0.0

    def test_ring_volume_factor(self, single):
        gather = single.all_gather(8 * MiB, 8)
        reduce = single.reduce_scatter(8 * MiB, 8)
        allreduce = single.all_reduce(8 * MiB, 8)
        latency = 7 * single.cluster.server.nvlink.latency
        assert gather == pytest.approx(reduce)
        # All-reduce moves twice the ring traffic (one latency charge).
        assert allreduce - latency == pytest.approx(2 * (gather - latency), rel=1e-6)

    def test_cross_server_is_slower(self, multi):
        intra = multi.all_gather(64 * MiB, 8)
        inter = multi.all_gather(64 * MiB, 16)
        assert inter > intra

    def test_bus_bandwidth_nic_bound_across_servers(self, multi):
        server = multi.cluster.server
        assert multi.bus_bandwidth(8) == server.nvlink.bandwidth
        assert multi.bus_bandwidth(16) == pytest.approx(
            server.nic.bandwidth / server.num_gpus
        )

    def test_more_ranks_move_more_ring_traffic(self, multi):
        t16 = multi.all_to_all(64 * MiB, 16)
        t32 = multi.all_to_all(64 * MiB, 32)
        assert t32 > t16

    def test_too_many_ranks_rejected(self, single):
        with pytest.raises(CommunicationError):
            single.all_gather(MiB, 9)

    def test_negative_bytes_rejected(self, single):
        with pytest.raises(CommunicationError):
            single.all_gather(-1, 4)

    def test_all_gather_linear_in_bytes(self, single):
        small = single.all_gather(MiB, 8)
        large = single.all_gather(2 * MiB, 8)
        latency = 7 * single.cluster.server.nvlink.latency
        assert (large - latency) == pytest.approx(2 * (small - latency))


class TestExpertParallel:
    def test_plan_divides_experts(self):
        plan = ExpertParallelPlan(
            MoEConfig(d_model=64, d_ffn=128, num_experts=32), num_gpus=8,
            num_moe_layers=2,
        )
        assert plan.experts_per_gpu == 4
        assert plan.expert_params_per_gpu == 4 * 2 * 64 * 128 * 2

    def test_uneven_sharding_rejected(self):
        with pytest.raises(ShardingError):
            ExpertParallelPlan(
                MoEConfig(d_model=64, d_ffn=128, num_experts=30), num_gpus=8,
                num_moe_layers=2,
            )

    def test_dispatch_bytes(self):
        plan = ExpertParallelPlan(
            MoEConfig(d_model=64, d_ffn=128, num_experts=8), num_gpus=8,
            num_moe_layers=1,
        )
        assert plan.dispatch_bytes_per_rank(2, 16) == 2 * 16 * 64 * 2

    def test_alltoall_grows_with_cluster(self):
        moe_small = MoEConfig(d_model=64, d_ffn=128, num_experts=8)
        moe_large = MoEConfig(d_model=64, d_ffn=128, num_experts=128)
        plan8 = ExpertParallelPlan(moe_small, 8, 1)
        plan128 = ExpertParallelPlan(moe_large, 128, 1)
        c8 = CollectiveModel(a100_cluster(1))
        c128 = CollectiveModel(a100_cluster(16))
        assert plan128.alltoall_time_per_layer(c128, 4, 128) > (
            plan8.alltoall_time_per_layer(c8, 4, 128)
        )
