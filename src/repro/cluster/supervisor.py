"""Launch and babysit a real multi-process elastic cluster.

``run_cluster`` owns every OS resource of one run: it spawns the
coordinator process, spawns ``world_size`` worker processes (spawn
context — each a fresh interpreter, as on a real node), then polls the
coordinator's ``stats`` RPC to:

- mirror membership into telemetry (``cluster.heartbeat.*`` gauges feed
  the ``worker_liveness`` watchdog rule, ``cluster.membership.*`` the
  run report);
- respawn dead workers into the same **slot** with a bumped
  **incarnation**, up to :data:`MAX_RESPAWNS` times — the replacement joins
  the coordinator's pending set and is admitted at the next rescale
  boundary;
- enforce ``run_timeout`` as a hard stop so a protocol bug can never
  hang a test or CI job.

Shutdown is a protocol step: ``OP_SHUTDOWN`` makes the coordinator
exit, workers exit when the workload completes, and the supervisor waits
on every child's sentinel at once. A healthy run kills nobody; a child
alive after :data:`EXIT_GRACE` is killed *and named* in
:attr:`ClusterReport.unclean_exits`.

The returned :class:`ClusterReport` bundles the converged losses, the
membership event log (the CI artifact), generation/eviction/respawn
counts and any watchdog alerts.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import connection

from repro.cluster.coordinator import coordinator_main
from repro.cluster.protocol import (
    OP_SHUTDOWN,
    OP_STATS,
    ClusterConfig,
    dial,
)
from repro.cluster.rules import HEARTBEAT_INTERVAL
from repro.cluster.worker import worker_entry
from repro.errors import ClusterError, ConfigurationError
from repro.memory.arena import session_token
from repro.telemetry.export import TelemetrySink

#: How long children get to exit on their own once shutdown was asked
#: for. A constant, not a knob: a healthy run exits in well under it.
EXIT_GRACE = 5.0
#: Pause before a dead worker's slot is respawned.
RESPAWN_DELAY = 0.05
#: Respawns per slot before a dead worker's slot stays empty.
MAX_RESPAWNS = 2


@dataclass
class ClusterReport:
    """What one elastic run did, and what it survived."""

    complete: bool = False
    losses: list[float] = field(default_factory=list)
    steps_completed: int = 0
    generations: int = 0
    evictions: int = 0
    respawns: int = 0
    final_world: int = 0
    events: list[dict] = field(default_factory=list)
    alerts: list = field(default_factory=list)
    workdir: str = ""
    #: Cluster-wide metrics rollup merged from every worker's event
    #: stream (counters summed, gauges max-merged) by the trace
    #: collector on exit.
    rollup: dict = field(default_factory=dict)
    #: Trace lanes contributed by rank streams — one per incarnation,
    #: so a kill-and-respawn run shows both ``w1i0`` and ``w1i1``.
    rank_lanes: list[str] = field(default_factory=list)
    #: Children that outlived :data:`EXIT_GRACE` after shutdown and had
    #: to be killed, by process name. Empty on every healthy run.
    unclean_exits: list[str] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ConfigurationError("no steps completed")
        return self.losses[-1]

    def to_dict(self) -> dict:
        payload = dict(vars(self))
        payload["alerts"] = [
            alert.to_dict() if hasattr(alert, "to_dict") else alert
            for alert in self.alerts
        ]
        return payload


def _bounded_recv(conn, timeout: float):
    """``recv()`` with a ``poll`` guard so a dead coordinator cannot
    hang the supervisor (SA005 discipline)."""
    if not conn.poll(timeout):
        raise ClusterError(
            f"coordinator did not answer within {timeout:.1f}s"
        )
    return conn.recv()


def _connect(address, authkey: bytes, deadline: float):
    """Dial the coordinator until it answers or the deadline passes."""
    last_error = None
    while time.monotonic() < deadline:
        try:
            return dial(address, authkey, "supervisor", "supervisor")
        except (EOFError, OSError) as exc:
            last_error = exc
            time.sleep(0.02)
    raise ClusterError(f"coordinator never came up: {last_error}")


def _spawn_worker(ctx, config: ClusterConfig, address, authkey: bytes,
                  workdir: str, slot: int, incarnation: int):
    process = ctx.Process(
        target=worker_entry,
        args=(config, address, authkey, workdir, slot, incarnation),
        name=f"cluster-w{slot}i{incarnation}",
        daemon=True,
    )
    process.start()
    return process


def run_cluster(config: ClusterConfig, workdir: str | None = None,
                telemetry=None) -> ClusterReport:
    """Run one elastic training job with real worker processes.

    ``workdir`` holds checkpoints and the membership event log (a fresh
    temp dir when omitted); ``telemetry`` is the supervisor's sink, which
    the membership/heartbeat gauges mirror into and a live watchdog
    reads.
    """
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-cluster-")
    os.makedirs(workdir, exist_ok=True)
    # AF_UNIX socket paths are length-limited (~108 bytes); anchor the
    # rendezvous address in tmp, scoped by pid + workdir hash.
    address = os.path.join(
        tempfile.gettempdir(),
        f"{session_token(workdir)}-{os.getpid()}.sock",
    )
    authkey = os.urandom(16)
    ctx = multiprocessing.get_context("spawn")

    watchdog = None
    if telemetry is not None:
        from repro.observe.watchdog import Watchdog

        watchdog = Watchdog(telemetry=telemetry)

    # The supervisor exports its own stream too: the mirrored
    # heartbeat/membership gauges plus any live watchdog alerts, on the
    # same file format the workers write.
    supervisor_sink = None
    if telemetry is not None and getattr(telemetry, "enabled", False):
        supervisor_sink = TelemetrySink(
            workdir, "supervisor", role="supervisor", telemetry=telemetry
        )

    coordinator = ctx.Process(
        target=coordinator_main,
        args=(config, address, authkey, workdir),
        name="cluster-coordinator",
        daemon=True,
    )
    coordinator.start()
    deadline = time.monotonic() + config.run_timeout
    supervisor_conn = _connect(address, authkey, deadline)

    workers: dict[int, object] = {}
    incarnations: dict[int, int] = {}
    report = ClusterReport(workdir=workdir)
    stats: dict = {}
    try:
        for slot in range(config.world_size):
            incarnations[slot] = 0
            workers[slot] = _spawn_worker(
                ctx, config, address, authkey, workdir, slot, 0
            )

        while time.monotonic() < deadline:
            supervisor_conn.send({"op": OP_STATS, "worker": "supervisor"})
            stats = _bounded_recv(
                supervisor_conn, max(1.0, config.run_timeout / 4)
            )
            _mirror(stats, telemetry)
            steps = [m["step"] for m in stats.get("members", {}).values()]
            if watchdog is not None:
                fired = watchdog.observe_step(step=max(steps, default=0))
                report.alerts.extend(fired)
                if supervisor_sink is not None:
                    for alert in fired:
                        supervisor_sink.record_alert(alert)
            if supervisor_sink is not None:
                supervisor_sink.step(max(steps, default=0))
            if stats.get("complete"):
                break
            _respawn_dead(
                ctx, config, address, authkey, workdir,
                workers, incarnations, report,
            )
            time.sleep(HEARTBEAT_INTERVAL)
    finally:
        try:
            supervisor_conn.send({"op": OP_SHUTDOWN, "worker": "supervisor"})
            _bounded_recv(supervisor_conn, 5.0)
        except (EOFError, OSError, ClusterError):
            pass
        try:
            supervisor_conn.close()
        except OSError:
            pass
        report.unclean_exits = _reap([coordinator, *workers.values()])

    report.complete = bool(stats.get("complete"))
    report.generations = int(stats.get("generation", 0))
    report.evictions = int(stats.get("evictions", 0))
    report.final_world = int(stats.get("world", 0))
    for payload in stats.get("reports", {}).values():
        losses = payload.get("losses")
        if losses:
            report.losses = [float(x) for x in losses]
            break
    report.steps_completed = len(report.losses)
    if supervisor_sink is not None:
        supervisor_sink.close()
    _collect_telemetry(workdir, report)
    return report


def _collect_telemetry(workdir: str, report: ClusterReport) -> None:
    """Merge every worker's event stream; re-run the rules cluster-wide.

    The live watchdog only ever saw the supervisor's own registry; the
    replay feeds the *merged* per-step stream (every rank's counters
    summed) through a fresh instance of the same rule set, so retry
    storms split across ranks and missed heartbeats fire on cluster
    totals. Replay alerts land in ``report.alerts`` alongside the live
    ones.
    """
    from repro.observe.watchdog import Watchdog
    from repro.telemetry.collect import (
        TraceCollector,
        load_membership,
        replay_watchdog,
    )

    report.events = load_membership(workdir)
    collected = TraceCollector(workdir).collect()
    report.rollup = collected.rollup
    report.rank_lanes = collected.rank_lanes
    report.alerts.extend(replay_watchdog(collected.streams, Watchdog()))


def _mirror(stats: dict, telemetry) -> None:
    """Publish the coordinator's view into the supervisor's telemetry."""
    if telemetry is None or not telemetry.enabled:
        return
    for worker, info in stats.get("members", {}).items():
        telemetry.record_heartbeat(worker, info["age"], info["missed"])
    telemetry.record_membership(
        stats.get("generation", 0),
        stats.get("world", 0),
        stats.get("evictions", 0),
    )


def _respawn_dead(ctx, config: ClusterConfig, address, authkey: bytes,
                  workdir: str, workers: dict, incarnations: dict,
                  report: ClusterReport) -> None:
    for slot, process in list(workers.items()):
        if process.is_alive() or process.exitcode == 0:
            continue  # running, or exited cleanly (workload done for it)
        if incarnations[slot] >= MAX_RESPAWNS:
            continue
        time.sleep(RESPAWN_DELAY)
        incarnations[slot] += 1
        report.respawns += 1
        workers[slot] = _spawn_worker(
            ctx, config, address, authkey, workdir,
            slot, incarnations[slot],
        )
        # Closed only once replaced: if the spawn raised, ``_reap``
        # still finds (and closes) the exited process in ``workers``.
        process.close()  # exited: is_alive() above already reaped it


def _reap(processes: list) -> list[str]:
    """One wait over every child's sentinel, bounded by
    :data:`EXIT_GRACE`; what is still alive then is killed and returned
    by name — reported, never silently cleaned up. Every child is closed
    on return, so its sentinel fd does not wait for the garbage
    collector."""
    deadline = time.monotonic() + EXIT_GRACE
    alive = [p for p in processes if p.is_alive()]
    while alive and time.monotonic() < deadline:
        connection.wait(
            [p.sentinel for p in alive],
            timeout=max(0.0, deadline - time.monotonic()),
        )
        alive = [p for p in alive if p.is_alive()]
    for process in alive:
        process.kill()
        process.join(timeout=EXIT_GRACE)
    unclean = [process.name for process in alive]
    for process in processes:
        if process.exitcode is not None:  # reaped, so close() cannot fail
            process.close()
    return unclean
