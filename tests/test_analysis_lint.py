"""Concurrency lint: thread-role races, lock cycles, baseline gating."""

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.baseline import compare, load_baseline, save_baseline
from repro.analysis.invariants import (
    DISCARDED_TIMEOUT,
    LOCK_ORDER_CYCLE,
    SHARED_STATE_RACE,
    SHM_LIFECYCLE,
    SPAWN_PICKLE,
    UNBOUNDED_RECV,
)
from repro.analysis.lint import lint_tree
from repro.errors import ConfigurationError


def _lint_source(tmp_path: Path, source: str):
    (tmp_path / "module.py").write_text(textwrap.dedent(source))
    return lint_tree(tmp_path)


RACY = """
    import threading

    class Worker:
        def __init__(self):
            self.count = 0
            self.thread = None

        def start(self):
            self.thread = threading.Thread(target=self._loop)
            self.thread.start()

        def _loop(self):
            while True:
                self.count += 1

        def progress(self):
            return self.count
"""


class TestSharedStateRace:
    def test_cross_thread_write_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, RACY)
        assert [f.rule for f in findings] == [SHARED_STATE_RACE]
        finding = findings[0]
        assert finding.subject == "Worker.count"
        assert "thread:_loop" in finding.roles
        assert "main" in finding.roles
        assert finding.fingerprint == (
            f"{SHARED_STATE_RACE}:module.py:Worker.count"
        )

    def test_lock_mediation_accepted(self, tmp_path):
        findings = _lint_source(tmp_path, """
            import threading

            class Worker:
                def __init__(self):
                    self.count = 0
                    self._lock = threading.Lock()

                def start(self):
                    threading.Thread(target=self._loop).start()

                def _loop(self):
                    with self._lock:
                        self.count += 1

                def progress(self):
                    return self.count
        """)
        assert findings == []

    def test_mediated_attribute_types_exempt(self, tmp_path):
        findings = _lint_source(tmp_path, """
            import queue
            import threading

            class Worker:
                def __init__(self):
                    self.jobs = queue.Queue()
                    self.done = threading.Event()

                def start(self):
                    threading.Thread(target=self._loop).start()

                def _loop(self):
                    while not self.done.is_set():
                        self.jobs.get(True, 0.1)

                def stop(self):
                    self.done.set()
        """)
        assert findings == []

    def test_init_only_publish_is_safe(self, tmp_path):
        findings = _lint_source(tmp_path, """
            import threading

            class Worker:
                def __init__(self):
                    self.config = {"a": 1}

                def start(self):
                    threading.Thread(target=self._loop).start()

                def _loop(self):
                    return self.config["a"]
        """)
        assert findings == []

    def test_single_threaded_class_skipped(self, tmp_path):
        findings = _lint_source(tmp_path, """
            class Counter:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += 1
        """)
        assert findings == []

    def test_role_propagation_through_helpers(self, tmp_path):
        # The write happens in a helper called from the thread entry; the
        # read happens in a helper called from the public API.
        findings = _lint_source(tmp_path, """
            import threading

            class Worker:
                def __init__(self):
                    self.state = 0

                def start(self):
                    threading.Thread(target=self._loop).start()

                def _loop(self):
                    self._bump()

                def _bump(self):
                    self.state += 1

                def snapshot(self):
                    return self._read()

                def _read(self):
                    return self.state
        """)
        assert [f.subject for f in findings] == ["Worker.state"]


class TestLockOrderCycle:
    def test_abba_cycle_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, """
            import threading

            class Transfer:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def forward(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def backward(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
        """)
        cycles = [f for f in findings if f.rule == LOCK_ORDER_CYCLE]
        assert len(cycles) == 1
        assert "_a_lock" in cycles[0].subject
        assert "_b_lock" in cycles[0].subject

    def test_consistent_order_accepted(self, tmp_path):
        findings = _lint_source(tmp_path, """
            import threading

            class Transfer:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def forward(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def also_forward(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass
        """)
        assert [f for f in findings if f.rule == LOCK_ORDER_CYCLE] == []


UNPICKLABLE_SPAWN = """
    import threading
    from dataclasses import dataclass
    from multiprocessing import get_context

    @dataclass
    class JobConfig:
        steps: int
        lock: threading.Lock
        done: threading.Event

    def launch(config: JobConfig):
        ctx = get_context("spawn")
        proc = ctx.Process(target=work, args=(config, 0))
        proc.start()
        return proc

    def work(config, slot):
        pass
"""


class TestSpawnPickle:
    def test_unpicklable_config_crossing_spawn_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, UNPICKLABLE_SPAWN)
        rules = sorted({f.rule for f in findings})
        assert rules == [SPAWN_PICKLE]
        subjects = sorted(f.subject for f in findings)
        assert subjects == ["JobConfig.done", "JobConfig.lock"]
        assert all("spawn" in f.message for f in findings)

    def test_replace_strip_is_clean(self, tmp_path):
        findings = _lint_source(tmp_path, """
            import threading
            from dataclasses import dataclass, replace
            from multiprocessing import get_context

            @dataclass
            class JobConfig:
                steps: int
                lock: threading.Lock | None

            def launch(config: JobConfig):
                ctx = get_context("spawn")
                spawn_config = replace(config, lock=None)
                proc = ctx.Process(target=work, args=(spawn_config,))
                proc.start()
                return proc

            def work(config):
                pass
        """)
        assert findings == []

    def test_constructed_config_tracked(self, tmp_path):
        findings = _lint_source(tmp_path, """
            import threading
            from dataclasses import dataclass
            from multiprocessing import get_context

            @dataclass
            class JobConfig:
                bus: threading.Condition

            def launch():
                config = JobConfig(bus=threading.Condition())
                get_context("spawn").Process(
                    target=work, args=(config,)
                ).start()

            def work(config):
                pass
        """)
        assert [f.subject for f in findings] == ["JobConfig.bus"]


class TestShmLifecycle:
    def test_missing_cleanup_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, """
            from multiprocessing import shared_memory

            def make_region(nbytes):
                shm = shared_memory.SharedMemory(create=True, size=nbytes)
                return shm.name
        """)
        assert [f.rule for f in findings] == [SHM_LIFECYCLE]
        assert findings[0].subject == "make_region"

    def test_close_and_unlink_accepted(self, tmp_path):
        findings = _lint_source(tmp_path, """
            from multiprocessing import shared_memory

            def roundtrip(nbytes):
                shm = shared_memory.SharedMemory(create=True, size=nbytes)
                try:
                    return bytes(shm.buf[:4])
                finally:
                    shm.close()
                    shm.unlink()
        """)
        assert findings == []

    def test_class_owning_lifecycle_accepted(self, tmp_path):
        # Lifecycle split across methods of one class is fine: the class
        # is the ownership scope.
        findings = _lint_source(tmp_path, """
            from multiprocessing import shared_memory

            class Region:
                def __init__(self, nbytes):
                    self.shm = shared_memory.SharedMemory(
                        create=True, size=nbytes
                    )

                def close(self):
                    self.shm.close()
                    self.shm.unlink()
        """)
        assert findings == []


class TestUnboundedRecv:
    def test_bare_recv_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, """
            class Client:
                def __init__(self, conn):
                    self.conn = conn

                def call(self, message):
                    self.conn.send(message)
                    return self.conn.recv()
        """)
        assert [f.rule for f in findings] == [UNBOUNDED_RECV]
        assert findings[0].subject == "Client.call.recv"

    def test_poll_guard_accepted(self, tmp_path):
        findings = _lint_source(tmp_path, """
            class Client:
                def __init__(self, conn):
                    self.conn = conn

                def call(self, message, timeout):
                    self.conn.send(message)
                    if not self.conn.poll(timeout):
                        raise TimeoutError("no reply")
                    return self.conn.recv()
        """)
        assert findings == []

    def test_bare_wait_join_get_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, """
            class Pool:
                def drain(self, event, thread, jobs):
                    event.wait()
                    thread.join()
                    return jobs.get()
        """)
        assert sorted(f.subject for f in findings) == [
            "Pool.drain.get", "Pool.drain.join", "Pool.drain.wait",
        ]

    def test_timeouts_accepted(self, tmp_path):
        findings = _lint_source(tmp_path, """
            class Pool:
                def drain(self, event, thread, jobs, cond):
                    event.wait(5.0)
                    thread.join(timeout=1.0)
                    with cond:
                        cond.wait_for(lambda: True, timeout=2.0)
                    return jobs.get(True, 0.5)
        """)
        # Bounded, so SA005 is satisfied; that nobody reads the outcome
        # is SA006's business (below).
        assert [f for f in findings if f.rule == UNBOUNDED_RECV] == []


class TestDiscardedTimeout:
    def test_discarded_join_and_wait_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, """
            class Pool:
                def stop(self, event, thread):
                    event.wait(5.0)
                    thread.join(timeout=1.0)

            def reap(process, grace):
                process.join(grace)
        """)
        assert [f.rule for f in findings] == [DISCARDED_TIMEOUT] * 3
        assert sorted(f.subject for f in findings) == [
            "Pool.stop.join", "Pool.stop.wait", "reap.join",
        ]
        assert "is_alive" in findings[0].message

    def test_reading_the_outcome_is_clean(self, tmp_path):
        findings = _lint_source(tmp_path, """
            def join_or_raise(worker, timeout):
                worker.join(timeout=timeout)
                if worker.is_alive():
                    raise RuntimeError(worker.name)

            def reap(process):
                process.join(timeout=1.0)
                return process.exitcode

            def ready(event):
                if not event.wait(timeout=1.0):
                    raise TimeoutError("never set")
                return event.wait(0.5)
        """)
        assert findings == []

    def test_ticks_and_raising_waits_are_clean(self, tmp_path):
        # A timed wait in a while loop is a tick (the loop re-reads its
        # condition); a barrier-style wait signals its timeout by
        # raising; ``queue.wait(key)`` passes a key, not a bound.
        findings = _lint_source(tmp_path, """
            import threading

            class Monitor:
                def run(self, cond, closing):
                    with cond:
                        while not closing():
                            cond.wait(timeout=0.5)

                def sync(self, barrier):
                    try:
                        barrier.wait(timeout=30.0)
                    except threading.BrokenBarrierError:
                        raise RuntimeError("a rank never arrived")

                def flush(self, queue, key):
                    queue.wait(key)
        """)
        assert findings == []

    def test_a_join_in_a_loop_is_still_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, """
            def drain(threads):
                while threads:
                    threads.pop().join(timeout=2.0)
        """)
        assert [f.fingerprint for f in findings] == [
            f"{DISCARDED_TIMEOUT}:module.py:drain.join"
        ]


class TestBaseline:
    def test_round_trip_and_compare(self, tmp_path):
        findings = _lint_source(tmp_path, RACY)
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, findings)
        accepted = load_baseline(baseline_path)
        assert set(accepted) == {f.fingerprint for f in findings}
        verdict = compare(findings, accepted)
        assert verdict["new"] == []
        assert len(verdict["accepted"]) == len(findings)
        assert verdict["resolved"] == []

    def test_new_finding_detected(self, tmp_path):
        findings = _lint_source(tmp_path, RACY)
        verdict = compare(findings, {})
        assert len(verdict["new"]) == 1

    def test_resolved_entries_reported(self, tmp_path):
        verdict = compare([], {"SA001:gone.py:Old.attr": "was accepted"})
        assert verdict["resolved"] == ["SA001:gone.py:Old.attr"]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "accepted": []}))
        with pytest.raises(ConfigurationError):
            load_baseline(path)


class TestRealTree:
    def test_repo_is_clean_against_committed_baseline(self):
        root = Path(repro.__file__).parent
        repo_root = root.parent.parent
        baseline = load_baseline(repo_root / "concurrency_baseline.json")
        verdict = compare(lint_tree(root), baseline)
        assert verdict["new"] == [], [
            f.fingerprint for f in verdict["new"]
        ]
        # The accepted entries still exist — the baseline is not stale.
        assert verdict["resolved"] == []

    def test_trainer_race_fix_is_recognized(self):
        # Every cross-thread attribute in src/ is lock-mediated: SA001
        # has no finding and needs no baseline entry.
        root = Path(repro.__file__).parent
        sa001 = {
            f.fingerprint for f in lint_tree(root) if f.rule == SHARED_STATE_RACE
        }
        assert sa001 == set()

    def test_supervisor_recv_paths_are_bounded(self):
        # The PR-9 satellite fix: every supervisor-side recv polls with a
        # timeout first, so a dead coordinator cannot hang the launcher.
        # Only the documented worker/coordinator exceptions remain.
        root = Path(repro.__file__).parent
        sa005 = sorted(
            f.fingerprint for f in lint_tree(root) if f.rule == UNBOUNDED_RECV
        )
        assert not any(":cluster/supervisor.py:" in fp for fp in sa005)
        assert "SA005:cluster/worker.py:CoordinatorClient.call.recv" in sa005

    def test_no_timeout_result_is_discarded(self):
        # ROADMAP 4a, finished: every bounded join goes through
        # errors.join_or_raise (or reads is_alive()/exitcode itself), so
        # SA006 needs no baseline entry.
        root = Path(repro.__file__).parent
        assert [
            f.fingerprint for f in lint_tree(root)
            if f.rule == DISCARDED_TIMEOUT
        ] == []

    def test_one_attach_helper_is_the_only_sa004(self):
        # memory/arena.py is the only module that touches SharedMemory;
        # its creator class is clean and the attach helper is the one
        # accepted ownership-by-protocol entry.
        root = Path(repro.__file__).parent
        sa004 = [f.fingerprint for f in lint_tree(root) if f.rule == SHM_LIFECYCLE]
        assert sa004 == ["SA004:memory/arena.py:attach_segment"]

    def test_no_spawned_config_carries_an_unpicklable_field(self):
        # ClusterConfig, the one config pickled into spawned processes,
        # carries only plain fields (each process opens its own sink
        # from its workdir), so SA003 has no finding and needs no
        # baseline entry.
        root = Path(repro.__file__).parent
        sa003 = [f.fingerprint for f in lint_tree(root) if f.rule == SPAWN_PICKLE]
        assert sa003 == []
