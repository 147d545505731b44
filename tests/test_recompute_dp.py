"""Activation recomputation and the ZeRO data-parallel step on thread ranks."""

import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.checkpoint.snapshot import latest_good_snapshot
from repro.cluster import (
    ClusterConfig, run_cluster, run_cluster_in_process, run_cluster_reference,
)
from repro.cluster import worker as worker_module
from repro.cluster.worker import _build_model, load_rank_state, make_batches, zero_step
from repro.errors import ConfigurationError, GradientError
from repro.zero.collectives import InProcessGroup
from repro.nn import (
    FFN,
    MixedPrecisionAdam,
    Tensor,
    TinyTransformerLM,
    cross_entropy,
    lm_synthetic_batches,
)
from repro.nn.recompute import checkpoint
from repro.nn import tensor as tensor_mod


def tiny(seed=0, recompute=False):
    return TinyTransformerLM(
        vocab_size=16, d_model=16, d_ffn=32, num_heads=2, num_layers=2,
        max_seq=8, seed=seed, recompute=recompute,
    )


class TestRecompute:
    def test_gradients_identical_with_and_without(self):
        batch = next(lm_synthetic_batches(16, 8, 4, 1, seed=1))
        plain = tiny(seed=3, recompute=False)
        ckpt = tiny(seed=3, recompute=True)

        loss_plain = cross_entropy(plain(batch.inputs), batch.targets)
        plain.zero_grad()
        loss_plain.backward()

        loss_ckpt = cross_entropy(ckpt(batch.inputs), batch.targets)
        ckpt.zero_grad()
        loss_ckpt.backward()

        assert loss_plain.item() == pytest.approx(loss_ckpt.item(), rel=1e-6)
        for (name, a), (_, b) in zip(
            plain.named_parameters(), ckpt.named_parameters()
        ):
            assert a.grad is not None and b.grad is not None, name
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-4, atol=1e-6,
                                       err_msg=name)

    def test_forward_builds_smaller_tape(self):
        """Recompute's whole point: fewer live tape nodes after forward."""
        batch = next(lm_synthetic_batches(16, 8, 4, 1, seed=1))

        def forward_nodes(model):
            start = tensor_mod.tape_nodes_created
            model(batch.inputs)
            return tensor_mod.tape_nodes_created - start

        plain_nodes = forward_nodes(tiny(seed=3, recompute=False))
        ckpt_nodes = forward_nodes(tiny(seed=3, recompute=True))
        assert ckpt_nodes < plain_nodes / 2

    def test_training_with_recompute_learns(self):
        model = tiny(seed=4, recompute=True)
        opt = MixedPrecisionAdam(model.parameters(), lr=2e-3)
        losses = []
        for batch in lm_synthetic_batches(16, 8, 8, 60, seed=5):
            loss = cross_entropy(model(batch.inputs, True), batch.targets)
            model.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-6:]) < np.mean(losses[:6]) - 0.2

    def test_checkpoint_standalone_function(self):
        rng = np.random.default_rng(0)
        ffn = FFN(8, 16, rng)
        x = Tensor(rng.standard_normal((2, 8)).astype(np.float32), requires_grad=True)

        direct = ffn(x)
        (direct ** 2).sum().backward()
        direct_xgrad = x.grad.copy()
        direct_wgrad = ffn.w1.weight.grad.copy()

        x.zero_grad()
        ffn.zero_grad()
        wrapped = checkpoint(ffn, x, params=tuple(ffn.parameters()))
        np.testing.assert_allclose(wrapped.data, direct.data, atol=1e-6)
        (wrapped ** 2).sum().backward()
        np.testing.assert_allclose(x.grad, direct_xgrad, rtol=1e-5)
        np.testing.assert_allclose(ffn.w1.weight.grad, direct_wgrad, rtol=1e-5)

    def test_nondeterministic_function_detected(self):
        rng = np.random.default_rng(1)
        state = {"called": 0}

        def flaky(t):
            state["called"] += 1
            return t * float(state["called"])

        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = checkpoint(flaky, x)
        with pytest.raises(GradientError):
            out.sum().backward()


def zero_config(**kwargs) -> ClusterConfig:
    """Four data shards, so thread worlds 1-4 all split the batch."""
    kwargs.setdefault("world_size", 4)
    kwargs.setdefault("steps", 6)
    kwargs.setdefault("checkpoint_every", 3)
    return ClusterConfig(**kwargs)


class TestZeroDataParallel:
    """The cluster's ZeRO step on thread ranks (``run_cluster_in_process``)."""

    def test_matches_single_rank_training(self, tmp_path):
        """Every world sums gradients and losses in shard order, so every
        world is bit-equal to the one-process reference — including 3 of
        4 shards, where rank 0 owns two and the others one."""
        config = zero_config()
        reference = run_cluster_reference(config)
        for world in (1, 2, 3, 4):
            losses = run_cluster_in_process(config, world, str(tmp_path / str(world)))
            assert losses == reference, world

    def test_replicas_stay_in_sync(self, tmp_path):
        """After every step each rank holds the same FP16 parameters."""
        config = zero_config()
        world = 3
        group = InProcessGroup(world, page_bytes=config.page_bytes)
        batches = make_batches(config)
        replicas = [None] * world
        errors = []

        def rank_main(rank):
            try:
                model, params = _build_model(config)
                transport = group.transport(rank)
                state = load_rank_state(config, str(tmp_path), params, rank, world)
                for batch in batches:
                    zero_step(config, model, params, batch, transport, state)
                replicas[rank] = [p.data.copy() for p in params]
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
                group.abort()

        threads = [threading.Thread(target=rank_main, args=(rank,))
                   for rank in range(world)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        for replica in replicas[1:]:
            for a, b in zip(replicas[0], replica):
                np.testing.assert_array_equal(a, b)

    def test_optimizer_states_partitioned(self, tmp_path):
        """ZeRO: each rank holds a ceil(N/world) slice of the FP32 states,
        and the slices tile the state once, fresh or resumed."""
        config = zero_config()
        run_cluster_in_process(config, 4, str(tmp_path))
        saved = latest_good_snapshot(str(tmp_path))[0].arrays
        for workdir, full in ((str(tmp_path / "fresh"), None),
                              (str(tmp_path), saved)):
            for world in (1, 2, 3, 4):
                _, params = _build_model(config)
                size = sum(p.data.size for p in params)
                if full is None:
                    expected = np.concatenate([p.data.reshape(-1) for p in params])
                else:
                    expected = full["master"]
                states = [load_rank_state(config, workdir, params, rank, world)
                          for rank in range(world)]
                for state in states:
                    for shard in (state.master, state.m, state.v):
                        assert shard.size == -(-size // world)
                masters = np.concatenate([s.master for s in states])
                np.testing.assert_array_equal(masters[:size], expected)
                assert not masters[size:].any()  # the zero-padded tail

    def test_communication_volume_accounting(self, tmp_path):
        """Per step, every rank reduce-scatters the full gradient and
        all-gathers its FP16 parameter slice (counted by the worker
        processes' own telemetry, summed in the run's rollup)."""
        world, steps = 2, 3
        config = zero_config(world_size=world, steps=steps)
        report = run_cluster(config, str(tmp_path))
        assert report.complete
        _, params = _build_model(config)
        size = sum(p.data.size for p in params)
        counters = report.rollup["counters"]
        assert counters["collective.reduce_scatter_bytes"] == steps * world * 4 * size
        assert counters["collective.all_gather_bytes"] == (
            steps * world * 4 * -(-size // world)
        )

    def test_uneven_batch_rejected(self, tmp_path):
        """The global batch is num_data_shards shards: a world with more
        ranks than shards (or none) cannot split it."""
        config = zero_config()
        for world in (0, config.num_data_shards + 1):
            with pytest.raises(ConfigurationError):
                run_cluster_in_process(config, world, str(tmp_path))

    def test_failing_rank_raises_instead_of_hanging(self, tmp_path, monkeypatch):
        """A rank that raises aborts the group; the driver re-raises that
        rank's own error, not a peer's broken barrier."""
        real = worker_module._shard_grads
        calls = {}

        def flaky(model, params, batch, config, rank, world):
            calls[rank] = calls.get(rank, 0) + 1
            if rank == 1 and calls[rank] == 2:
                raise RuntimeError("rank 1 lost its device")
            return real(model, params, batch, config, rank, world)

        monkeypatch.setattr(worker_module, "_shard_grads", flaky)
        began = time.perf_counter()
        with pytest.raises(RuntimeError, match="rank 1 lost its device"):
            run_cluster_in_process(zero_config(), 3, str(tmp_path))
        assert time.perf_counter() - began < 10.0
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("rank") and t.is_alive()]

    def test_dp_losses_decrease(self, tmp_path):
        losses = run_cluster_in_process(zero_config(steps=30), 2, str(tmp_path))
        assert np.mean(losses[-5:]) < np.mean(losses[:5]) - 0.2
