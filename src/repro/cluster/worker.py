"""Elastic ZeRO training: one step, driven by worker processes or threads.

The ZeRO step (:func:`zero_step`) trains a tiny transformer LM:

1. compute gradients for the **data shards this rank owns** (shard ``s``
   belongs to rank ``s % world``; the shard count is fixed at the launch
   world size, so the global batch never changes when the world shrinks);
2. ``reduce_scatter`` them, one row per shard: each rank keeps its slice
   of the sum taken in shard order, so at every world size it is
   bit-identical to the sequential reference's;
3. apply Adam to the FP32 master/moment shards this rank owns and
   refresh FP16 parameters via ``all_gather``;
4. ``all_gather`` the per-shard float64 losses and sum them in shard
   order for the global loss.

Two drivers run it. :func:`run_worker` is one OS process: it joins a
generation, builds a :class:`SharedMemoryTransport`, and trains until the
workload completes or the generation fences. :func:`run_cluster_in_process`
runs every rank as a thread on one :class:`InProcessGroup`.

Every ``checkpoint_every`` steps (and before a graceful rescale) the
group all-gathers full master/m/v state and rank 0 persists it through
the crash-consistent :mod:`repro.checkpoint.snapshot` path. Recovery is
resume (:func:`load_rank_state`): a new generation, or a new in-process
run at any world size, loads the newest good snapshot, re-shards it for
its world size (exact for elementwise Adam), and replays the batch
stream from the checkpointed step.

A configured kill (``kill_rank``/``kill_at_step``) SIGKILLs the worker
*between gradient computation and the reduce-scatter* — mid-step, with
the collective half-published — which is exactly the window the fencing
protocol must make safe.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.checkpoint.reshard import split_even
from repro.checkpoint.snapshot import (
    Snapshot,
    latest_good_snapshot,
    save_snapshot,
    snapshot_path,
)
from repro.cluster.protocol import (
    OP_BARRIER,
    OP_DONE,
    OP_HEARTBEAT,
    OP_JOIN,
    OP_LEAVE,
    OP_REPORT,
    OP_RETIRE,
    ClusterConfig,
    dial,
    worker_id,
)
from repro.cluster.rules import HEARTBEAT_INTERVAL
from repro.cluster.transport import SharedMemoryTransport
from repro.errors import (
    ConfigurationError,
    GenerationFencedError,
    RendezvousError,
    join_or_raise,
)
from repro.memory.arena import session_token
from repro.nn import MixedPrecisionAdam, round_fp16
from repro.nn.functional import cross_entropy
from repro.telemetry.core import NULL_TELEMETRY
from repro.zero.collectives import InProcessGroup, shard_length


# ----------------------------------------------------------------------
# Coordinator client (control plane)
# ----------------------------------------------------------------------
class CoordinatorClient:
    """The control connection: join, barriers, reports. Main thread only."""

    def __init__(self, address, authkey: bytes, worker: str):
        self.worker = worker
        self._conn = dial(address, authkey, worker, "control")

    def call(self, op: str, **fields) -> dict:
        self._conn.send({"op": op, "worker": self.worker, **fields})
        return self._conn.recv()

    def join(self, slot: int, incarnation: int) -> dict:
        reply = self.call(OP_JOIN, slot=slot, incarnation=incarnation)
        if not reply.get("ok") and not (
            reply.get("closing") or reply.get("complete")
        ):
            raise RendezvousError(reply.get("error", "join rejected"))
        return reply

    def barrier(self, name: str, generation: int) -> dict:
        reply = self.call(OP_BARRIER, name=name, generation=generation)
        if not reply.get("ok"):
            raise GenerationFencedError(generation, reply.get("reason"))
        return reply

    def close(self) -> None:
        try:
            self.call(OP_LEAVE)
        except (EOFError, OSError):
            pass
        try:
            self._conn.close()
        except OSError:
            pass


class HeartbeatPump:
    """Dedicated heartbeat connection on its own thread.

    Separate from the control connection so a worker blocked in a long
    collective still proves liveness, and a SIGKILL drops both sockets
    at once (the coordinator's fastest death signal).
    """

    def __init__(self, address, authkey: bytes, worker: str, interval: float):
        self.worker = worker
        self.interval = interval
        self._conn = dial(address, authkey, worker, "heartbeat")
        self._lock = threading.Lock()
        self._generation = 0
        self._step = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._pump, name=f"heartbeat-{worker}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def configure(self, generation: int, step: int) -> None:
        with self._lock:
            self._generation = generation
            self._step = step

    def advance(self, step: int) -> None:
        with self._lock:
            self._step = step

    def _pump(self) -> None:
        while not self._stop.wait(self.interval):
            with self._lock:
                generation, step = self._generation, self._step
            try:
                self._conn.send({
                    "op": OP_HEARTBEAT,
                    "worker": self.worker,
                    "generation": generation,
                    "step": step,
                })
                self._conn.recv()
            except (EOFError, OSError):
                return  # coordinator gone; the worker is exiting anyway

    def stop(self) -> None:
        self._stop.set()
        join_or_raise(self._thread, 2.0, "heartbeat reply never came?")
        try:
            self._conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# The ZeRO workload (shared with the sequential reference)
# ----------------------------------------------------------------------
def _workload(config: ClusterConfig):
    """The run's model/data recipe as the shared fleet ``JobWorkload``."""
    from repro.fleet.factory import JobWorkload

    return JobWorkload(
        vocab_size=config.vocab_size,
        layers=config.layers,
        seq_len=config.seq_len,
        batch_size=config.global_batch,
        lr=config.lr,
        seed=config.seed,
    )


def _build_model(config: ClusterConfig):
    from repro.fleet.factory import JobFactory

    model = JobFactory(_workload(config)).model()
    params = model.parameters()
    return model, params


def make_batches(config: ClusterConfig) -> list:
    """The run's deterministic batch stream; identical on every rank."""
    from repro.fleet.factory import JobFactory

    return JobFactory(_workload(config)).batches(config.steps)


def _flatten_params(params) -> np.ndarray:
    return np.concatenate(
        [p.data.reshape(-1).astype(np.float32) for p in params]
    )


def _assign_params(params, flat: np.ndarray) -> None:
    offset = 0
    for param in params:
        size = param.data.size
        param.data[...] = flat[offset:offset + size].reshape(param.data.shape)
        offset += size


def _shard_grads(model, params, batch, config: ClusterConfig, rank: int,
                 world: int) -> tuple[np.ndarray, np.ndarray]:
    """Float64 losses and FP32 gradients of this rank's data shards.

    Row ``j`` is shard ``j * world + rank``: term ``j * world + rank`` of
    the transport's reduction, which therefore sums the shards in shard
    order whatever the world. A rank owning one shard fewer than
    ``ceil(num_data_shards / world)`` leaves its last row zero.
    """
    rows = -(-config.num_data_shards // world)
    total = sum(p.data.size for p in params)
    losses = np.zeros(rows, dtype=np.float64)
    grads = np.zeros((rows, total), dtype=np.float32)
    for row, shard in enumerate(range(rank, config.num_data_shards, world)):
        lo = shard * config.shard_batch
        hi = lo + config.shard_batch
        logits = model(batch.inputs[lo:hi], mixed_precision=True)
        loss = cross_entropy(logits, batch.targets[lo:hi])
        model.zero_grad()
        loss.backward()
        offset = 0
        for param in params:
            if param.grad is not None:
                grads[row, offset:offset + param.data.size] = param.grad.reshape(-1)
            offset += param.data.size
        losses[row] = loss.item()
    return losses, grads


def run_cluster_reference(config: ClusterConfig) -> list[float]:
    """Fault-free sequential run of the exact worker math.

    One process, no transport: gradients of all data shards accumulate
    in shard order, which is the order every cluster generation reduces
    them in — so a cluster run matches this bit for bit, whatever world
    sizes its generations trained at.
    """
    model, params = _build_model(config)
    master = _flatten_params(params)
    moment_m = np.zeros_like(master)
    moment_v = np.zeros_like(master)
    adam = MixedPrecisionAdam([], lr=config.lr)
    losses: list[float] = []
    for step, batch in enumerate(make_batches(config)):
        shard_losses, grads = _shard_grads(model, params, batch, config, 0, 1)
        grad = np.zeros_like(master)
        for row in grads:
            grad += row
        grad /= config.num_data_shards
        adam.t = step + 1
        adam._apply(master, grad, moment_m, moment_v)
        _assign_params(params, round_fp16(master))
        losses.append(sum(shard_losses.tolist()) / config.num_data_shards)
    return losses


# ----------------------------------------------------------------------
# The ZeRO step (shared by the worker process and the in-process driver)
# ----------------------------------------------------------------------
@dataclass
class RankState:
    """One rank's 1/world slice of the FP32 state and its run position."""

    master: np.ndarray
    m: np.ndarray
    v: np.ndarray
    adam: MixedPrecisionAdam  # its ``t`` counts the steps applied
    start: int  # the first step to run: the resumed snapshot's
    losses: list[float]
    size: int  # unpadded element count of the full state


def load_rank_state(config: ClusterConfig, workdir: str, params, rank: int,
                    world: int) -> RankState:
    """Resume from the newest good snapshot (or start fresh) and keep
    this rank's ``split_even`` slice: the elastic re-shard, exact for
    elementwise Adam whatever world wrote the snapshot."""
    adam = MixedPrecisionAdam([], lr=config.lr)
    start, losses = 0, []
    resumed = latest_good_snapshot(workdir)
    if resumed is None:
        master = _flatten_params(params)
        full = [master, np.zeros_like(master), np.zeros_like(master)]
    else:
        snapshot = resumed[0]
        full = [snapshot.arrays[name].astype(np.float32)
                for name in ("master", "m", "v")]
        adam.t = int(snapshot.metadata["adam_t"])
        start = int(snapshot.metadata["step"])
        losses = [float(x) for x in snapshot.metadata["losses"]]
        _assign_params(params, round_fp16(full[0]))
    master, m, v = (split_even(array, world)[rank] for array in full)
    return RankState(master, m, v, adam, start, losses, full[0].size)


def zero_step(config: ClusterConfig, model, params, batch, transport,
              state: RankState, telemetry=NULL_TELEMETRY,
              before_reduce=None) -> None:
    """One ZeRO step on this rank; appends the global loss to ``state``.

    Gradients of the data shards this rank owns, ``reduce_scatter`` of
    them in shard order, Adam on this rank's state slice, ``all_gather``
    of the FP16-rounded slices into every replica, then ``all_gather`` of
    the per-shard float64 losses. ``before_reduce`` runs between the
    gradients and the first collective (the worker's kill window).
    """
    with telemetry.span("grads", track="train"):
        shard_losses, grads = _shard_grads(
            model, params, batch, config, transport.rank, transport.world
        )
    if before_reduce is not None:
        before_reduce()
    with telemetry.span("reduce_scatter", track="train", nbytes=grads.nbytes):
        grad_shard = transport.reduce_scatter(grads)
    telemetry.record_collective("reduce_scatter", grads.nbytes)
    grad_shard /= config.num_data_shards
    state.adam.t += 1
    with telemetry.span("adam", track="train"):
        state.adam._apply(state.master, grad_shard, state.m, state.v)
    param_shard = round_fp16(state.master)
    with telemetry.span("all_gather", track="train",
                        nbytes=param_shard.nbytes):
        flat = np.concatenate(transport.all_gather(param_shard))
    telemetry.record_collective("all_gather", param_shard.nbytes)
    _assign_params(params, flat)
    # Rank-major rows, transposed: shard order (then the zero rows).
    by_shard = np.stack(transport.all_gather(shard_losses)).T.reshape(-1)
    state.losses.append(sum(by_shard.tolist()) / config.num_data_shards)


def _save_group_checkpoint(workdir: str, transport, state: RankState,
                           completed: int) -> None:
    """All-gather full state; rank 0 persists it; everyone waits."""
    arrays = {
        name: np.concatenate(transport.all_gather(getattr(state, name)))[:state.size]
        for name in ("master", "m", "v")
    }
    if transport.rank == 0:
        snapshot = Snapshot(arrays=arrays, metadata={
            "step": completed,
            "adam_t": state.adam.t,
            "losses": state.losses,
            "generation": transport.generation,
            "world": transport.world,
        })
        save_snapshot(snapshot, snapshot_path(workdir, completed))
    # Nobody proceeds (or retires) until the save is published.
    transport.barrier(f"ckpt{completed}")


def run_cluster_in_process(config: ClusterConfig, world: int,
                           workdir: str) -> list[float]:
    """Run the ZeRO step on ``world`` thread ranks; returns the losses.

    The ranks share one :class:`InProcessGroup` and resume from and
    checkpoint into ``workdir`` as a process generation does, so a run
    at one world size resumes at another. At every world the losses
    equal :func:`run_cluster_reference` bit for bit. A rank that raises aborts
    the group, and its error is re-raised here.
    """
    if not 1 <= world <= config.num_data_shards:
        raise ConfigurationError(f"world {world} outside [1, {config.num_data_shards}]")
    os.makedirs(workdir, exist_ok=True)
    group = InProcessGroup(world, page_bytes=config.page_bytes)
    batches = make_batches(config)
    losses: list[float] = []
    failures: list[BaseException] = []  # the first is the cause

    def rank_main(rank: int) -> None:
        transport = group.transport(rank)
        try:
            model, params = _build_model(config)
            state = load_rank_state(config, workdir, params, rank, world)
            for step in range(state.start, config.steps):
                zero_step(config, model, params, batches[step], transport,
                          state)
                if (step + 1) % config.checkpoint_every == 0:
                    _save_group_checkpoint(workdir, transport, state, step + 1)
            if rank == 0:
                losses.extend(state.losses)
        except BaseException as exc:
            failures.append(exc)
            group.abort()  # peers fail on the barrier after the cause

    threads = [threading.Thread(target=rank_main, args=(rank,),
                                name=f"rank{rank}", daemon=True)
               for rank in range(world)]
    for thread in threads:
        thread.start()
    for thread in threads:
        join_or_raise(thread, config.run_timeout, "a collective never met")
    if failures:
        raise failures[0]
    return losses


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------
def _maybe_kill(config: ClusterConfig, slot: int, incarnation: int,
                step: int, sink=None) -> None:
    """SIGKILL mid-step if this life is the configured victim."""
    if (
        config.kill_rank is not None
        and config.kill_at_step is not None
        and slot == config.kill_rank
        and incarnation == 0
        and step == config.kill_at_step
    ):
        if sink is not None:
            # Flush completed events, then leave the truncated tail a
            # real mid-write SIGKILL would — the collector must skip it.
            sink.tear()
        os.kill(os.getpid(), signal.SIGKILL)


def _run_generation(config: ClusterConfig, workdir: str,
                    client: CoordinatorClient, pump: HeartbeatPump,
                    transport, model, params, slot: int, incarnation: int,
                    sink=None) -> bool:
    """Train within one generation. True = workload complete.

    Every barrier goes through ``transport.barrier`` so the transport
    sees every fence (its ``close()`` then sweeps a dead peer's arena).
    """
    generation, rank = transport.generation, transport.rank
    world = transport.world
    telemetry = sink.telemetry if sink is not None else NULL_TELEMETRY
    steps_counter = telemetry.counter("worker.steps")
    step_gauge = telemetry.gauge("worker.step")
    batches = make_batches(config)
    state = load_rank_state(config, workdir, params, rank, world)

    for step in range(state.start, config.steps):
        pump.advance(step)
        if config.step_delay:
            time.sleep(config.step_delay)
        with telemetry.span(f"step{step}", track="train", step=step,
                            generation=generation, rank=rank):
            zero_step(
                config, model, params, batches[step], transport, state,
                telemetry, before_reduce=lambda: _maybe_kill(
                    config, slot, incarnation, step, sink),
            )

        completed = step + 1
        steps_counter.inc()
        step_gauge.set(completed)
        reply = transport.barrier(f"step{step}")
        rejoin = bool(reply.get("rejoin")) and completed < config.steps
        if completed % config.checkpoint_every == 0 or rejoin:
            with telemetry.span("checkpoint", track="train", step=completed):
                _save_group_checkpoint(workdir, transport, state, completed)
        if sink is not None:
            sink.step(completed)
        if rejoin:
            # A joiner is waiting: checkpointed above, now re-form.
            client.call(OP_RETIRE, generation=generation)
            return False

    client.call(OP_REPORT, payload={
        "losses": state.losses,
        "rank": rank,
        "world": world,
        "generation": generation,
    })
    client.call(OP_DONE)
    return True


def run_worker(config: ClusterConfig, address, authkey: bytes, workdir: str,
               slot: int, incarnation: int) -> int:
    """The worker's outer rendezvous loop; returns the exit code."""
    me = worker_id(slot, incarnation)
    try:
        client = CoordinatorClient(address, authkey, me)
        pump = HeartbeatPump(address, authkey, me, HEARTBEAT_INTERVAL)
    except (EOFError, OSError):
        return 3  # coordinator already gone (e.g. respawned post-completion)
    pump.start()
    session = session_token(workdir)
    # One event file per *life*: a killed w1i0 and its respawn w1i1 get
    # separate lanes in the collected trace.
    sink = config.sink.open(me, role="rank") if config.sink else None
    try:
        while True:
            reply = client.join(slot, incarnation)
            if not reply.get("ok"):
                # The run finished (or is shutting down) without us.
                return 0
            generation = int(reply["generation"])
            rank = int(reply["rank"])
            world = int(reply["world"])
            if sink is not None:
                # The clock-alignment anchor: the coordinator logged this
                # same generation forming in wall time.
                sink.anchor(f"generation:{generation}", rank=rank,
                            world=world)
            pump.configure(generation, 0)
            model, params = _build_model(config)
            # The largest payload a rank publishes is the reduce-scatter's
            # stack of zero-padded FP32 gradients, one row per owned shard.
            state_size = sum(p.data.size for p in params)
            rows = -(-config.num_data_shards // world)
            transport = SharedMemoryTransport(
                rank, world, generation, session,
                barrier=lambda name, g=generation: client.barrier(name, g),
                page_bytes=config.page_bytes,
                capacity=rows * shard_length(state_size, world) * world * 4,
            )
            try:
                if _run_generation(
                    config, workdir, client, pump, transport, model, params,
                    slot, incarnation, sink,
                ):
                    return 0
            except GenerationFencedError:
                # Survivor of a fenced generation: back to rendezvous.
                # Brief pause lets the coordinator settle the eviction.
                time.sleep(HEARTBEAT_INTERVAL)
                continue
            finally:
                transport.close()
    finally:
        if sink is not None:
            sink.close()
        pump.stop()
        client.close()


def worker_entry(config: ClusterConfig, address, authkey: bytes, workdir: str,
                 slot: int, incarnation: int) -> None:
    """Spawn-context process entry point."""
    raise SystemExit(
        run_worker(config, address, authkey, workdir, slot, incarnation)
    )
