"""The rendezvous wire protocol: configuration, ops, and event names.

Coordinator and workers speak pickled dict messages over
``multiprocessing.connection``. Every request carries ``op`` and
``worker``; replies are plain dicts. Three invariants keep the protocol
honest:

- **Generations are fenced, never patched.** Membership only changes by
  retiring the current generation (fencing it) and forming the next one;
  a fenced generation's barriers all fail, so no survivor can complete a
  collective with a stale view of the world.
- **Identity is (slot, incarnation).** The supervisor owns ``slot``
  (stable across respawns); each respawn bumps ``incarnation``, so a
  zombie from a previous life can never be mistaken for its replacement.
- **Data sharding is fixed at launch.** ``num_data_shards`` equals the
  initial world size forever; shard ``s`` belongs to rank ``s % world``
  of whatever generation is running, which keeps the gradient math
  reproducible across shrink/regrow cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing.connection import Client

from repro.errors import ConfigurationError
from repro.protocols import TelemetryLike
from repro.telemetry.export import SinkSpec
from repro.units import KiB


@dataclass(frozen=True)
class ClusterConfig:
    """One elastic-cluster scenario: workload, membership and fault knobs."""

    # Workload (mirrors resilience.chaos.ChaosConfig's tiny LM).
    world_size: int = 3
    steps: int = 12
    checkpoint_every: int = 3
    seed: int = 0
    layers: int = 2
    lr: float = 2e-3
    vocab_size: int = 32
    seq_len: int = 16
    #: Rows per data shard; the global batch is num_data_shards * this.
    shard_batch: int = 2
    page_bytes: int = 16 * KiB
    #: Artificial per-step duration (simulated compute). Gives slow
    #: joiners a window to be admitted mid-run in tests and demos.
    step_delay: float = 0.0

    # Membership / failure detection.
    heartbeat_interval: float = 0.05
    #: Heartbeat age that marks a worker suspect.
    suspect_after: float = 0.25
    #: Heartbeat age that evicts a worker and fences its generation.
    evict_after: float = 0.75
    #: How long rendezvous waits for stragglers before forming a smaller
    #: generation (it forms immediately once world_size workers pend).
    rendezvous_grace: float = 1.0
    min_world: int = 1

    # Fault injection + supervision.
    kill_rank: int | None = None
    kill_at_step: int | None = None
    max_respawns: int = 2
    respawn_delay: float = 0.05
    run_timeout: float = 120.0

    # Supervisor-side resources. Both live only in the supervisor
    # process: ``workdir`` is where checkpoints and the membership event
    # log land (a fresh temp dir when omitted), and ``telemetry`` is the
    # sink that membership/heartbeat gauges mirror into. The config is
    # pickled to spawned coordinator/worker processes, so the supervisor
    # strips ``telemetry`` (not picklable, and meaningless off-process)
    # before any spawn.
    workdir: str | None = None
    telemetry: TelemetryLike | None = None
    #: Unlike ``telemetry``, this *does* cross the spawn boundary: a
    #: picklable recipe (directory + flush interval) each worker opens
    #: its own per-incarnation event file from, so worker-side spans and
    #: metrics are exported instead of silently dropped. ``run_cluster``
    #: fills it from ``workdir`` when unset.
    sink: SinkSpec | None = None

    def __post_init__(self) -> None:
        for ok, rule in (
            (self.steps >= 1, "steps >= 1"),
            (self.world_size >= 1, "world_size >= 1"),
            (self.checkpoint_every >= 1, "checkpoint_every >= 1"),
            (self.shard_batch >= 1, "shard_batch >= 1"),
            (1 <= self.min_world <= self.world_size,
             "1 <= min_world <= world_size"),
            (self.kill_rank in (None, *range(self.world_size)),
             "kill_rank to be None or a slot in [0, world_size)"),
        ):
            if not ok:
                raise ConfigurationError(f"ClusterConfig needs {rule}")

    @property
    def num_data_shards(self) -> int:
        """Fixed at the launch world size; never tracks the live world."""
        return self.world_size

    @property
    def global_batch(self) -> int:
        return self.num_data_shards * self.shard_batch


def worker_id(slot: int, incarnation: int) -> str:
    """Stable-slot, per-life worker identity, e.g. ``w1i0`` -> ``w1i1``."""
    return f"w{slot}i{incarnation}"


# Request ops (worker -> coordinator).
OP_HELLO = "hello"          # open a control or heartbeat connection
OP_JOIN = "join"            # block until the next generation forms
OP_BARRIER = "barrier"      # generation-scoped named barrier
OP_HEARTBEAT = "heartbeat"  # liveness beacon on the heartbeat connection
OP_RETIRE = "retire"        # graceful exit from a generation (rescale)
OP_REPORT = "report"        # final per-worker results
OP_DONE = "done"            # training finished on this worker
OP_LEAVE = "leave"          # close the control session
OP_STATS = "stats"          # supervisor: observability snapshot
OP_SHUTDOWN = "shutdown"    # supervisor: stop serving

#: The hello ack is immediate; a peer silent this long is wedged.
HELLO_TIMEOUT = 5.0


def dial(address, authkey: bytes, worker: str, kind: str):
    """Connect to the coordinator and complete the hello handshake
    (``kind``: ``control`` / ``heartbeat`` / ``supervisor``). ``OSError``
    or ``EOFError`` if it is not there; callers decide whether to retry."""
    conn = Client(address, authkey=authkey)
    try:
        conn.send({"op": OP_HELLO, "worker": worker, "kind": kind})
        if not conn.poll(HELLO_TIMEOUT):
            raise ConnectionError(
                f"no hello ack from the coordinator in {HELLO_TIMEOUT:g}s"
            )
        conn.recv()
    except (EOFError, OSError):
        conn.close()
        raise
    return conn


#: The membership audit log (event types: :mod:`repro.cluster.rules`).
EVENTS_FILENAME = "membership_events.jsonl"
