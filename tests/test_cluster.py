"""Elastic cluster: collectives, rendezvous protocol, kill-mid-step recovery."""

import json
import multiprocessing
import os
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.checkpoint.snapshot import (
    Snapshot,
    latest_good_snapshot,
    list_snapshots,
    save_snapshot,
    snapshot_path,
)
from repro.cluster import (
    ClusterConfig,
    Coordinator,
    CoordinatorClient,
    run_cluster,
    run_cluster_reference,
    supervisor,
)
from repro.cluster.protocol import OP_RETIRE, OP_SHUTDOWN
from repro.cluster.transport import SharedMemoryTransport
from repro.errors import (
    ClusterError,
    CommunicationError,
    ConfigurationError,
    GenerationFencedError,
)
from repro.memory.arena import segment_names, session_token
from repro.units import KiB
from repro.zero.collectives import InProcessGroup, copy_pages, shard_length


class TestShardMath:
    def test_shard_length_is_ceil_division(self):
        assert shard_length(10, 3) == 4
        assert shard_length(9, 3) == 3
        assert shard_length(1, 4) == 1

    def test_copy_pages_copies_and_counts(self):
        src = np.arange(1000, dtype=np.float32)
        dst = np.zeros_like(src)
        pages = copy_pages(dst, src, page_bytes=256)
        np.testing.assert_array_equal(dst, src)
        assert pages == -(-src.nbytes // 256)

    def test_copy_pages_rejects_shape_mismatch(self):
        with pytest.raises(CommunicationError):
            copy_pages(np.zeros(3), np.zeros(4), page_bytes=64)


def _run_on_threads(transports, fn):
    """``fn(transport, rank)`` on one thread per rank; results by rank."""
    results = [None] * len(transports)
    errors = []

    def runner(rank):
        try:
            results[rank] = fn(transports[rank], rank)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(rank,))
        for rank in range(len(transports))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert not errors, errors
    return results


class TestInProcessCollectives:
    def _run_ranks(self, group, fn):
        return _run_on_threads(
            [group.transport(rank) for rank in range(group.world)], fn
        )

    def test_all_gather_returns_every_shard_everywhere(self):
        group = InProcessGroup(3, page_bytes=1 * KiB)
        shards = [np.full(5, rank, dtype=np.float32) for rank in range(3)]
        results = self._run_ranks(
            group, lambda t, rank: t.all_gather(shards[rank])
        )
        for gathered in results:
            assert len(gathered) == 3
            for rank, piece in enumerate(gathered):
                np.testing.assert_array_equal(piece, shards[rank])

    def test_reduce_scatter_matches_numpy_sum(self):
        world = 3
        group = InProcessGroup(world, page_bytes=1 * KiB)
        rng = np.random.default_rng(0)
        fulls = [rng.normal(size=10).astype(np.float32) for _ in range(world)]
        total = np.sum(fulls, axis=0)
        length = shard_length(10, world)
        padded = np.zeros(length * world, dtype=np.float32)
        padded[:10] = total
        results = self._run_ranks(
            group, lambda t, rank: t.reduce_scatter(fulls[rank])
        )
        for rank, shard in enumerate(results):
            np.testing.assert_allclose(
                shard, padded[rank * length:(rank + 1) * length],
                rtol=0, atol=1e-6,
            )


class TestSharedMemoryTransport:
    WORLD = 3
    PAGE = 256

    def _world(self, session, barrier=None, capacity=4096):
        gate = threading.Barrier(self.WORLD)
        if barrier is None:
            def barrier(name):
                gate.wait(timeout=10)
        return [
            SharedMemoryTransport(
                rank, self.WORLD, 1, session, barrier, self.PAGE, capacity
            )
            for rank in range(self.WORLD)
        ]

    def test_collectives_are_bit_equal_to_in_process(self):
        session = f"rptest{os.getpid():x}a"
        rng = np.random.default_rng(7)
        # 10 elements over 3 ranks: the padded tail is exercised.
        fulls = [rng.normal(size=10).astype(np.float32)
                 for _ in range(self.WORLD)]
        shards = [rng.normal(size=5).astype(np.float32)
                  for _ in range(self.WORLD)]

        def both(transport, rank):
            return (transport.reduce_scatter(fulls[rank]),
                    transport.all_gather(shards[rank]))

        group = InProcessGroup(self.WORLD, page_bytes=self.PAGE)
        expected = _run_on_threads(
            [group.transport(rank) for rank in range(self.WORLD)], both
        )
        transports = self._world(session)
        try:
            # One arena per rank for the whole generation, named by rank.
            assert len(segment_names(session)) == self.WORLD
            actual = _run_on_threads(transports, both)
            assert len(segment_names(session)) == self.WORLD
        finally:
            for transport in transports:
                transport.close()
        assert segment_names(session) == []
        for (reduced, gathered), (want_reduced, want_gathered) in zip(
            actual, expected
        ):
            assert reduced.tobytes() == want_reduced.tobytes()
            assert [g.tobytes() for g in gathered] == [
                w.tobytes() for w in want_gathered
            ]

    def test_payload_over_capacity_raises_before_any_barrier(self):
        session = f"rptest{os.getpid():x}b"
        arrivals = []
        transports = self._world(session, barrier=arrivals.append,
                                 capacity=64)
        try:
            with pytest.raises(ClusterError, match="exceeds"):
                transports[0].all_gather(np.zeros(17, dtype=np.float32))
            assert arrivals == []
        finally:
            for transport in transports:
                transport.close()
        assert segment_names(session) == []

    def test_fenced_rank_sweeps_the_dead_peers_arena(self):
        session = f"rptest{os.getpid():x}c"

        def fenced(name):
            raise GenerationFencedError(1, "peer evicted")

        survivor, dead, bystander = self._world(session, barrier=fenced)
        try:
            with pytest.raises(GenerationFencedError):
                survivor.all_gather(np.ones(4, dtype=np.float32))
            # ``dead`` never runs close(): SIGKILL. A transport that saw
            # no fence removes only its own arena ...
            bystander.close()
            assert len(segment_names(session)) == 2
            # ... the one that did sweeps its generation's peer names.
            survivor.close()
            assert segment_names(session) == []
        finally:
            dead.close()  # double unlink is tolerated


class TestSnapshotHelpers:
    def _write(self, directory, step, value):
        snapshot = Snapshot(
            arrays={"x": np.full(4, value, dtype=np.float32)},
            metadata={"step": step},
        )
        save_snapshot(snapshot, snapshot_path(directory, step))

    def test_list_snapshots_newest_first_and_ignores_junk(self, tmp_path):
        directory = str(tmp_path)
        for step in (3, 9, 6):
            self._write(directory, step, step)
        (tmp_path / "notes.txt").write_text("junk")
        listed = list_snapshots(directory)
        assert [step for step, _ in listed] == [9, 6, 3]
        assert list_snapshots(str(tmp_path / "missing")) == []

    def test_latest_good_skips_corrupt_newest(self, tmp_path):
        directory = str(tmp_path)
        self._write(directory, 3, 3.0)
        self._write(directory, 6, 6.0)
        with open(snapshot_path(directory, 6), "r+b") as handle:
            handle.seek(40)
            handle.write(b"\xff" * 64)
        loaded = latest_good_snapshot(directory)
        assert loaded is not None
        snapshot, step = loaded
        assert step == 3
        np.testing.assert_array_equal(
            snapshot.arrays["x"], np.full(4, 3.0, dtype=np.float32)
        )

    def test_latest_good_returns_none_when_empty(self, tmp_path):
        assert latest_good_snapshot(str(tmp_path)) is None


class _CoordinatorHarness:
    """An in-thread coordinator plus helper clients for protocol tests."""

    def __init__(self, tmp_path, **overrides):
        self.config = ClusterConfig(
            world_size=2, rendezvous_grace=0.2, run_timeout=20.0,
            **overrides,
        )
        self.coordinator = Coordinator(self.config, str(tmp_path))
        self.address = os.path.join(
            tempfile.gettempdir(), f"repro-test-{os.getpid()}-{id(self)}.sock"
        )
        self.authkey = b"test-cluster"
        self.thread = threading.Thread(
            target=self.coordinator.serve,
            args=(self.address, self.authkey),
            daemon=True,
        )
        self.thread.start()
        self._clients = []

    def client(self, worker):
        deadline = 50
        for attempt in range(deadline):
            try:
                client = CoordinatorClient(self.address, self.authkey, worker)
                self._clients.append(client)
                return client
            except (ConnectionError, FileNotFoundError, OSError):
                if attempt == deadline - 1:
                    raise
                threading.Event().wait(0.05)

    def join_all(self, slots):
        """Concurrent joins (join blocks until the generation forms)."""
        replies = {}

        def joiner(slot):
            client = self.client(f"w{slot}i0")
            replies[slot] = (client, client.join(slot, 0))

        threads = [
            threading.Thread(target=joiner, args=(slot,)) for slot in slots
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(replies) == len(slots)
        return replies

    def shutdown(self):
        try:
            control = CoordinatorClient(self.address, self.authkey, "test")
            control.call(OP_SHUTDOWN)
        except (ConnectionError, FileNotFoundError, EOFError, OSError):
            pass
        for client in self._clients:
            try:
                client.close()
            except (EOFError, OSError):
                pass
        self.thread.join(timeout=5)
        assert not self.thread.is_alive(), "serve() outlived OP_SHUTDOWN"


class TestCoordinatorProtocol:
    def test_rendezvous_assigns_ranks_by_slot(self, tmp_path):
        harness = _CoordinatorHarness(tmp_path)
        try:
            replies = harness.join_all([1, 0])
            for slot, (_, reply) in replies.items():
                assert reply["ok"]
                assert reply["generation"] == 1
                assert reply["world"] == 2
                assert reply["rank"] == slot
        finally:
            harness.shutdown()

    def test_shutdown_makes_serve_return(self, tmp_path):
        harness = _CoordinatorHarness(tmp_path)
        harness.join_all([0, 1])
        started = time.monotonic()
        harness.shutdown()
        assert time.monotonic() - started < 1.0

    def test_barrier_releases_all_members(self, tmp_path):
        harness = _CoordinatorHarness(tmp_path)
        try:
            replies = harness.join_all([0, 1])
            outcomes = {}

            def arrive(slot):
                client, _ = replies[slot]
                outcomes[slot] = client.barrier("sync", 1)

            threads = [
                threading.Thread(target=arrive, args=(slot,))
                for slot in replies
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert all(reply["ok"] for reply in outcomes.values())
        finally:
            harness.shutdown()

    def test_retire_fences_the_generation(self, tmp_path):
        harness = _CoordinatorHarness(tmp_path)
        try:
            replies = harness.join_all([0, 1])
            client0, _ = replies[0]
            client1, _ = replies[1]
            client0.call(OP_RETIRE, generation=1)
            with pytest.raises(GenerationFencedError):
                client1.barrier("after-fence", 1)
        finally:
            harness.shutdown()

    def test_stale_generation_barrier_is_fenced(self, tmp_path):
        harness = _CoordinatorHarness(tmp_path)
        try:
            replies = harness.join_all([0, 1])
            client0, _ = replies[0]
            with pytest.raises(GenerationFencedError):
                client0.barrier("old", 99)
        finally:
            harness.shutdown()

    def test_disconnect_evicts_and_next_generation_forms(self, tmp_path):
        harness = _CoordinatorHarness(tmp_path)
        try:
            replies = harness.join_all([0, 1])
            client0, _ = replies[0]
            client1, _ = replies[1]
            # SIGKILL equivalent: drop w0i0's control connection.
            client0._conn.close()
            with pytest.raises(GenerationFencedError):
                while True:
                    client1.barrier("poll", 1)
                    threading.Event().wait(0.02)
            # The survivor re-joins alone; after the grace window a
            # world-1 generation forms.
            reply = client1.join(1, 0)
            assert reply["ok"]
            assert reply["generation"] == 2
            assert reply["world"] == 1
            events = [e["type"] for e in harness.coordinator._events]
            assert "evicted" in events
            assert "fenced" in events
        finally:
            harness.shutdown()


def _max_delta(losses, reference):
    assert len(losses) == len(reference)
    return max(abs(a - b) for a, b in zip(losses, reference))


class TestReap:
    def test_child_that_ignores_shutdown_is_killed_and_named(self,
                                                             monkeypatch):
        monkeypatch.setattr(supervisor, "EXIT_GRACE", 0.3)
        ctx = multiprocessing.get_context("spawn")
        exiting = ctx.Process(target=time.sleep, args=(0,), name="exits")
        stuck = ctx.Process(target=time.sleep, args=(60,),
                            name="ignores-shutdown")
        exiting.start()
        stuck.start()
        started = time.monotonic()
        unclean = supervisor._reap([exiting, stuck])
        elapsed = time.monotonic() - started
        assert unclean == ["ignores-shutdown"]
        assert not stuck.is_alive() and not exiting.is_alive()
        assert exiting.exitcode == 0
        assert 0.3 <= elapsed < 3.0


class TestClusterIntegration:
    def test_fault_free_run_matches_reference_exactly(self, tmp_path):
        config = ClusterConfig(world_size=3, steps=4, checkpoint_every=2,
                               run_timeout=90.0)
        report = run_cluster(config, str(tmp_path))
        assert report.complete
        assert report.steps_completed == config.steps
        assert report.generations == 1
        assert report.evictions == 0
        assert report.losses == run_cluster_reference(config)
        assert report.unclean_exits == []
        assert segment_names(session_token(str(tmp_path))) == []

    def test_sigkill_mid_step_recovers_and_converges(self, tmp_path):
        config = ClusterConfig(
            world_size=3, steps=8, checkpoint_every=3,
            kill_rank=1, kill_at_step=4, run_timeout=90.0,
        )
        report = run_cluster(config, str(tmp_path))
        assert report.complete
        assert report.steps_completed == config.steps
        assert report.unclean_exits == []
        # The SIGKILLed rank could not unlink its arena; a survivor did.
        assert segment_names(session_token(str(tmp_path))) == []
        assert report.evictions == 1
        assert report.respawns >= 1
        # Recovery within two generations of the original.
        assert 2 <= report.generations <= 3
        assert report.final_world >= 2
        reference = run_cluster_reference(config)
        assert _max_delta(report.losses, reference) <= 0.05

        events = report.events
        evicted = [e for e in events if e["type"] == "evicted"]
        assert evicted and evicted[0]["worker"] == "w1i0"
        assert any(e["type"] == "fenced" for e in events)
        formed = [e for e in events if e["type"] == "generation_formed"]
        assert len(formed) >= 2
        # The respawned incarnation made it into a later generation.
        assert any("w1i1" in e.get("members", {}) for e in formed)
        # The membership log is also persisted for CI artifacts.
        log = tmp_path / "membership_events.jsonl"
        assert log.exists()
        persisted = [
            json.loads(line)
            for line in log.read_text().splitlines() if line
        ]
        assert [e["type"] for e in persisted] == [e["type"] for e in events]

        # Distributed telemetry: every incarnation exported its own
        # stream, so the merged trace has a lane for the killed life
        # (w1i0) AND the respawned one (w1i1), plus the coordinator's
        # membership events — and the SIGKILL left a truncated tail the
        # collector skipped without losing the complete events.
        from repro.telemetry.collect import TraceCollector

        collected = TraceCollector(str(tmp_path)).collect()
        assert {"w0i0", "w1i0", "w1i1", "w2i0"} <= set(collected.rank_lanes)
        assert collected.skipped_lines >= 1
        lanes = {e["args"]["name"] for e in collected.trace["traceEvents"]
                 if e.get("ph") == "M"}
        assert "coordinator" in lanes
        membership = [e for e in collected.trace["traceEvents"]
                      if e.get("cat") == "membership"]
        assert any(e["name"] == "generation_formed" for e in membership)
        # Worker streams aligned via their generation anchors.
        rank_streams = [s for s in collected.streams if s.role == "rank"]
        assert any(s.alignment == "anchor" for s in rank_streams)
        # The cluster report carries the same rollup: fleet-wide step
        # counter sums every rank's completed steps.
        assert report.rollup["counters"]["worker.steps"] > 0
        assert set(report.rank_lanes) == set(collected.rank_lanes)

        # Post-hoc protocol replay: the persisted membership log and the
        # per-rank telemetry streams from a real SIGKILL run satisfy the
        # fencing discipline and collective-agreement invariants.
        from repro.analysis.protocol import verify_cluster_workdir

        verification = verify_cluster_workdir(str(tmp_path))
        assert verification.ok, [
            (v.invariant, v.message) for v in verification.violations
        ]
        assert verification.stats["membership_events"] == len(persisted)
        assert verification.stats["rank_streams"] >= 4
        assert verification.stats["collectives_observed"] > 0


class TestClusterConfig:
    @pytest.mark.parametrize("fields", [
        dict(steps=0), dict(world_size=0), dict(checkpoint_every=0),
        dict(shard_batch=0), dict(min_world=0),
        dict(world_size=2, min_world=3), dict(kill_rank=3),
        dict(kill_rank=-1),
    ])
    def test_rejects_configs_no_run_can_satisfy(self, fields):
        with pytest.raises(ConfigurationError):
            ClusterConfig(**fields)


class TestClusterCli:
    def test_cluster_rejects_bad_config_before_spawning(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        code = main([
            "cluster", "--ckpt-every", "0", "--workdir", str(tmp_path / "run"),
        ])
        assert code == 2
        assert "checkpoint_every >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_cluster_command_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main([
            "cluster", "--workers", "2", "--steps", "2",
            "--ckpt-every", "2", "--workdir", str(tmp_path / "run"),
            "--report", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict" in out
        payload = json.loads(report_path.read_text())
        assert payload["complete"] is True
        assert payload["failures"] == []
        assert payload["unclean_exits"] == []
        assert payload["leaked_segments"] == []
        assert payload["max_delta"] == 0.0
        assert len(payload["reference"]) == 2

    def test_cluster_command_fails_on_divergence(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "cluster", "--workers", "2", "--steps", "2",
            "--ckpt-every", "2", "--tolerance", "-1",
            "--workdir", str(tmp_path / "run"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.err

    def test_chaos_gate_fails_on_unhealed_or_divergent_runs(self, capsys,
                                                            tmp_path):
        from repro.cli import main

        code = main([
            "chaos", "--steps", "3", "--ckpt-every", "2",
            "--workdir", str(tmp_path), "--tolerance", "-1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "diverged from reference" in captured.err

    def test_chaos_kill_rank_validates_slot(self, capsys, tmp_path):
        from repro.cli import main

        code = main([
            "chaos", "--kill-rank", "7", "--workers", "3",
            "--workdir", str(tmp_path),
        ])
        assert code == 2
