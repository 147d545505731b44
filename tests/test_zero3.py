"""Functional ZeRO-3: sharded parameters gathered around computation."""

import numpy as np
import pytest

from repro.checkpoint.snapshot import latest_good_snapshot
from repro.cluster import ClusterConfig, run_cluster_in_process
from repro.cluster.worker import _build_model, make_batches
from repro.dp import Zero3Engine
from repro.errors import ShardingError
from repro.nn import TinyTransformerLM, lm_synthetic_batches, round_fp16


def tiny(seed=0):
    return TinyTransformerLM(
        vocab_size=16, d_model=16, d_ffn=32, num_heads=2, num_layers=2,
        max_seq=8, seed=seed,
    )


class TestZero3Semantics:
    def test_parameters_dropped_outside_compute(self):
        """ZeRO-3's invariant: full parameters exist only around use."""
        engine = Zero3Engine(tiny(seed=1), num_ranks=4)
        assert not engine.parameters_materialized
        for param in engine.model.parameters():
            assert not param.data.any()
        batch = next(lm_synthetic_batches(16, 8, 4, 1, seed=2))
        engine.train_step(batch)
        assert not engine.parameters_materialized
        for param in engine.model.parameters():
            assert not param.data.any()

    def test_full_parameter_roundtrip(self):
        model = tiny(seed=3)
        originals = [p.data.copy() for p in model.parameters()]
        engine = Zero3Engine(model, num_ranks=4)
        for index, original in enumerate(originals):
            np.testing.assert_array_equal(engine.full_parameter(index), original)

    def test_rank_count_invariance(self):
        """Training is invariant to the shard count (up to fp32
        summation order in the micro-batch gradient accumulation)."""
        batches = list(lm_synthetic_batches(16, 8, 8, 5, seed=4))
        losses = {}
        finals = {}
        for ranks in (1, 2, 4):
            engine = Zero3Engine(tiny(seed=5), num_ranks=ranks, lr=1e-3)
            losses[ranks] = [engine.train_step(b) for b in batches]
            finals[ranks] = [
                engine.full_parameter(i)
                for i in range(len(engine.model.parameters()))
            ]
        for ranks in (2, 4):
            np.testing.assert_allclose(losses[1], losses[ranks], atol=1e-6)
            for a, b in zip(finals[1], finals[ranks]):
                np.testing.assert_allclose(a, b, atol=1e-5)

    def test_matches_zero1_replica_trainer(self, tmp_path):
        """ZeRO-3 and the cluster's replica ZeRO step (full FP16 replicas,
        sharded FP32 state) optimize identically."""
        config = ClusterConfig(world_size=2, steps=5, checkpoint_every=5)
        model, _ = _build_model(config)
        z3 = Zero3Engine(model, num_ranks=2, lr=config.lr)
        z3_losses = [z3.train_step(batch) for batch in make_batches(config)]
        losses = run_cluster_in_process(config, 2, str(tmp_path))
        np.testing.assert_allclose(z3_losses, losses, rtol=0, atol=1e-6)
        master = latest_good_snapshot(str(tmp_path))[0].arrays["master"]
        offset = 0
        for index, param in enumerate(model.parameters()):
            expected = round_fp16(master[offset:offset + param.data.size])
            np.testing.assert_allclose(
                z3.full_parameter(index).reshape(-1), expected, atol=1e-6
            )
            offset += param.data.size

    def test_learns(self):
        engine = Zero3Engine(tiny(seed=8), num_ranks=2, lr=2e-3)
        losses = [
            engine.train_step(batch)
            for batch in lm_synthetic_batches(16, 8, 8, 60, seed=9)
        ]
        assert np.mean(losses[-6:]) < np.mean(losses[:6]) - 0.2

    def test_evaluate_leaves_parameters_dropped(self):
        engine = Zero3Engine(tiny(seed=8), num_ranks=2)
        batch = next(lm_synthetic_batches(16, 8, 4, 1, seed=9))
        loss = engine.evaluate(batch)
        assert loss > 0
        assert not engine.parameters_materialized


class TestZero3Memory:
    def test_resident_state_shrinks_with_ranks(self):
        """ZeRO's 1/N claim: per-rank persistent state bytes."""
        one = Zero3Engine(tiny(seed=10), num_ranks=1).resident_state_bytes(0)
        four = Zero3Engine(tiny(seed=10), num_ranks=4).resident_state_bytes(0)
        assert four <= one / 4 + 4096  # padding slack

    def test_gather_traffic_accounted(self):
        engine = Zero3Engine(tiny(seed=11), num_ranks=2)
        batch = next(lm_synthetic_batches(16, 8, 4, 1, seed=12))
        engine.train_step(batch)
        param_bytes = sum(p.data.nbytes for p in engine.model.parameters())
        # Two micro-batches gather the full parameters once each.
        assert engine.gather_bytes == 2 * param_bytes
        assert engine.reduce_bytes == param_bytes

    def test_uneven_batch_rejected(self):
        engine = Zero3Engine(tiny(seed=13), num_ranks=3)
        batch = next(lm_synthetic_batches(16, 8, 4, 1, seed=14))
        with pytest.raises(ShardingError):
            engine.train_step(batch)
