"""Checkpointing, crash recovery and elastic re-sharding (Section 3.1)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.checkpoint import (
    Snapshot,
    capture_engine_state,
    latest_good_snapshot,
    load_snapshot,
    restore_engine_state,
    save_snapshot,
)
from repro.checkpoint.reshard import split_even
from repro.cluster import ClusterConfig, run_cluster_in_process
from repro.engine import AngelConfig, initialize
from repro.errors import CheckpointError, ShardingError
from repro.nn import MixedPrecisionAdam, TinyTransformerLM, lm_synthetic_batches
from repro.units import KiB, MiB


def tiny_model(seed=0):
    return TinyTransformerLM(
        vocab_size=16, d_model=16, d_ffn=32, num_heads=2, num_layers=2,
        max_seq=8, seed=seed,
    )


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path):
        snapshot = Snapshot(metadata={"step": 7})
        snapshot.add_array("w", np.arange(12, dtype=np.float32).reshape(3, 4))
        path = str(tmp_path / "ckpt.npz")
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.metadata["step"] == 7
        np.testing.assert_array_equal(loaded.arrays["w"], snapshot.arrays["w"])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_snapshot(str(tmp_path / "nope.npz"))

    def test_corruption_detected(self, tmp_path):
        snapshot = Snapshot()
        snapshot.add_array("w", np.ones(64, dtype=np.float32))
        path = str(tmp_path / "ckpt.npz")
        save_snapshot(snapshot, path)
        # Flip bytes in the middle of the file.
        with open(path, "r+b") as handle:
            handle.seek(400)
            handle.write(b"\xff" * 16)
        with pytest.raises(CheckpointError):
            load_snapshot(path)

    def test_duplicate_array_name_rejected(self):
        snapshot = Snapshot()
        snapshot.add_array("w", np.ones(2))
        with pytest.raises(CheckpointError):
            snapshot.add_array("w", np.ones(2))

    def test_foreign_npz_rejected(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        np.savez(path, w=np.ones(2))
        with pytest.raises(CheckpointError):
            load_snapshot(path)


class TestCrashRecovery:
    def test_resume_is_bitwise_identical(self, tmp_path):
        """Train 10 steps; vs train 5, checkpoint, 'crash', restore, 5."""
        batches = list(lm_synthetic_batches(16, 8, 4, 10, seed=2))
        config = AngelConfig(
            gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
            page_bytes=64 * KiB,
        )

        def engine(seed):
            model = tiny_model(seed=seed)
            return initialize(
                model, MixedPrecisionAdam(model.parameters(), lr=1e-3), config
            )

        def train(engine, batches):
            for batch in batches:
                engine.backward(engine(batch))
                engine.step()

        with engine(seed=1) as straight:
            train(straight, batches)
            expected = [[t.read_array() for t in (m.master, m.moment1, m.moment2)]
                        for m in straight._managed]
        path = str(tmp_path / "ckpt.npz")
        with engine(seed=1) as first:
            train(first, batches[:5])
            save_snapshot(capture_engine_state(first, step=5), path)
        # A different init: the restore must overwrite every state.
        with engine(seed=99) as resumed:
            assert restore_engine_state(load_snapshot(path), resumed) == 5
            train(resumed, batches[5:])
            for states, managed in zip(expected, resumed._managed):
                pages = (managed.master, managed.moment1, managed.moment2)
                for want, page in zip(states, pages):
                    np.testing.assert_array_equal(
                        want, page.read_array(), err_msg=managed.name
                    )

    def test_architecture_mismatch_rejected(self):
        def engine(num_layers):
            model = TinyTransformerLM(
                vocab_size=16, d_model=16, d_ffn=32, num_heads=2,
                num_layers=num_layers, max_seq=8,
            )
            config = AngelConfig(
                gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
                page_bytes=64 * KiB,
            )
            return initialize(
                model, MixedPrecisionAdam(model.parameters()), config
            )

        with engine(2) as source:
            snapshot = capture_engine_state(source)
        with engine(3) as other, pytest.raises(CheckpointError):
            restore_engine_state(snapshot, other)


class TestEngineCheckpoint:
    def _engine(self, seed=1, **config_kwargs):
        model = tiny_model(seed=seed)
        opt = MixedPrecisionAdam(model.parameters(), lr=1e-3)
        config = AngelConfig(
            gpu_memory_bytes=2 * MiB, cpu_memory_bytes=16 * MiB,
            ssd_bytes=16 * MiB, page_bytes=64 * KiB, **config_kwargs,
        )
        return initialize(model, opt, config)

    def _losses(self, engine, batches):
        losses = []
        for batch in batches:
            loss = engine(batch)
            engine.backward(loss)
            engine.step()
            losses.append(loss.item())
        return losses

    @pytest.mark.parametrize("cut", [4, 6])
    def test_lock_free_resume_mid_block_keeps_buffered_gradients(self, cut, tmp_path):
        """A snapshot between sweeps carries the gradients accumulated
        since the last one: the resumed run is bit-identical, whether
        the cut lands on a block boundary (4) or inside a block (6)."""
        batches = list(lm_synthetic_batches(16, 8, 4, 12, seed=3))
        with self._engine(lock_free=True, update_interval=4) as straight:
            expected = self._losses(straight, batches)

        with self._engine(lock_free=True, update_interval=4) as first:
            before = self._losses(first, batches[:cut])
            save_snapshot(capture_engine_state(first, step=cut), tmp_path / "ckpt.npz")
        with self._engine(seed=42, lock_free=True, update_interval=4) as resumed:
            assert restore_engine_state(load_snapshot(tmp_path / "ckpt.npz"), resumed) == cut
            after = self._losses(resumed, batches[cut:])
        assert before + after == expected

    def test_engine_resume_matches(self):
        batches = list(lm_synthetic_batches(16, 8, 4, 8, seed=3))

        straight = self._engine()
        for batch in batches:
            loss = straight(batch)
            straight.backward(loss)
            straight.step()

        first = self._engine()
        for batch in batches[:4]:
            loss = first(batch)
            first.backward(loss)
            first.step()
        snapshot = capture_engine_state(first, step=4)
        first.close()

        resumed = self._engine(seed=42)
        assert restore_engine_state(snapshot, resumed) == 4
        for batch in batches[4:]:
            loss = resumed(batch)
            resumed.backward(loss)
            resumed.step()

        for a, b in zip(straight._managed, resumed._managed):
            np.testing.assert_array_equal(
                a.master.read_array(), b.master.read_array(), err_msg=a.name
            )
        straight.close()
        resumed.close()


class TestReshard:
    def test_split_and_merge_roundtrip(self):
        array = np.arange(10, dtype=np.float32)
        shards = split_even(array, 3)
        assert len(shards) == 3
        assert all(s.size == 4 for s in shards)  # padded to ceil(10/3)
        np.testing.assert_array_equal(np.concatenate(shards)[:10], array)

    def test_reshard_exact_across_rank_counts(self):
        """Gather K rank shards, split for N: what a resuming generation
        does with a K-rank snapshot. Exact, whatever K and N."""
        state = np.random.default_rng(0).standard_normal(37).astype(np.float32)
        for src, dst in [(8, 2), (2, 8), (3, 5), (7, 1)]:
            merged = np.concatenate(split_even(state, src))[:state.size]
            moved = split_even(merged, dst)
            assert len(moved) == dst
            np.testing.assert_array_equal(np.concatenate(moved)[:state.size], state)

    def test_bad_rank_rejected(self):
        with pytest.raises(ShardingError):
            split_even(np.ones(4, dtype=np.float32), 0)
        with pytest.raises(ShardingError):
            split_even(np.ones((2, 2), dtype=np.float32), 2)

    @pytest.mark.parametrize("src,dst", [(2, 4), (4, 2), (2, 1)])
    def test_elastic_rescale_training(self, src, dst, tmp_path):
        """Pause on K ranks, resume on N: the straight K-rank run's losses
        and state, up to the regrouped FP32 gradient sum."""
        config = ClusterConfig(world_size=4, steps=6, checkpoint_every=3)
        straight_dir, paused_dir = str(tmp_path / "straight"), str(tmp_path / "paused")
        straight = run_cluster_in_process(config, src, straight_dir)

        paused = run_cluster_in_process(replace(config, steps=3), src, paused_dir)
        assert paused == straight[:3]
        resumed = run_cluster_in_process(config, dst, paused_dir)
        assert resumed[:3] == straight[:3]  # replayed from the snapshot
        np.testing.assert_allclose(resumed, straight, rtol=0, atol=1e-6)

        final = latest_good_snapshot(paused_dir)
        expected = latest_good_snapshot(straight_dir)
        assert final[1] == expected[1] == config.steps
        assert final[0].metadata["world"] == dst
        for name in ("master", "m", "v"):
            np.testing.assert_allclose(
                final[0].arrays[name], expected[0].arrays[name], rtol=0, atol=1e-6
            )
