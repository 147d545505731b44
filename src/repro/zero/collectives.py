"""Ring-collective cost models and the data-plane ``Transport`` contract.

Two halves of Section 5's Communicator live here:

- :class:`CollectiveModel` — the *cost* side (NCCL-style ring
  arithmetic): moving a logical buffer of ``B`` bytes among ``N`` ranks
  costs ``B * (N - 1) / N`` bytes on the busiest link, so
  ``t = B * (N - 1) / N / busbw + hops * latency``. Within one server the
  bus bandwidth is NVLink; across servers the ring crosses the per-server
  NIC, which ``gpus_per_server`` ranks share.

- :class:`Transport` — the *data* side: the pluggable collective
  interface trainer ranks actually exchange bytes through. Transfers are
  page-granular (the unit of inter-process traffic, per §4.1 and
  PatrickStar), and reductions sum rank slots in ascending order so
  every implementation is deterministic. :class:`InProcessGroup` backs
  ranks that are threads of one process;
  :class:`repro.cluster.transport.SharedMemoryTransport` carries the same
  contract across real OS processes via ``multiprocessing.shared_memory``.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import CommunicationError
from repro.hardware.cluster import ClusterSpec
from repro.units import KiB


@dataclass(frozen=True)
class CollectiveModel:
    """Collective durations for a given cluster."""

    cluster: ClusterSpec

    def _participants_ok(self, num_ranks: int, nbytes: int) -> None:
        if num_ranks <= 0:
            raise CommunicationError("collectives need at least one rank")
        if num_ranks > self.cluster.num_gpus:
            raise CommunicationError(
                f"{num_ranks} ranks exceed the cluster's {self.cluster.num_gpus} GPUs"
            )
        if nbytes < 0:
            raise CommunicationError("cannot communicate a negative byte count")

    def bus_bandwidth(self, num_ranks: int) -> float:
        """Per-rank sustained bandwidth of the ring's busiest link."""
        server = self.cluster.server
        if num_ranks <= server.num_gpus:
            return server.nvlink.bandwidth
        # The ring crosses servers: each server's NIC carries the traffic
        # of all its local ranks.
        return min(
            server.nvlink.bandwidth,
            server.nic.bandwidth / server.num_gpus,
        )

    def _ring_time(self, nbytes: int, num_ranks: int, volume_factor: float) -> float:
        self._participants_ok(num_ranks, nbytes)
        if num_ranks == 1 or nbytes == 0:
            return 0.0
        server = self.cluster.server
        latency = server.nvlink.latency
        if num_ranks > server.num_gpus:
            latency = server.nic.latency
        traffic = volume_factor * nbytes * (num_ranks - 1) / num_ranks
        return traffic / self.bus_bandwidth(num_ranks) + (num_ranks - 1) * latency

    def all_gather(self, nbytes: int, num_ranks: int) -> float:
        """Assemble a sharded buffer of total size ``nbytes`` on every rank."""
        return self._ring_time(nbytes, num_ranks, volume_factor=1.0)

    def reduce_scatter(self, nbytes: int, num_ranks: int) -> float:
        """Reduce a replicated buffer and leave each rank its shard."""
        return self._ring_time(nbytes, num_ranks, volume_factor=1.0)

    def all_reduce(self, nbytes: int, num_ranks: int) -> float:
        """Reduce-scatter followed by all-gather: twice the ring traffic."""
        return self._ring_time(nbytes, num_ranks, volume_factor=2.0)

    def all_to_all(self, nbytes_per_rank: int, num_ranks: int) -> float:
        """Every rank exchanges ``nbytes_per_rank`` with all peers.

        Used by expert parallelism (Section 6.4): tokens are routed to the
        GPUs that own their experts. Each rank keeps 1/N of its traffic
        local, so the wire carries ``(N-1)/N`` of it; across servers it is
        NIC-bound, which is why T5-MoE scalability falls below GPT's
        ("more input data will be fed into the all-to-all communication of
        the MoE layer, which can result in throughput degradation").
        """
        self._participants_ok(num_ranks, nbytes_per_rank)
        if num_ranks == 1 or nbytes_per_rank == 0:
            return 0.0
        server = self.cluster.server
        wire_bytes = nbytes_per_rank * (num_ranks - 1) / num_ranks
        if num_ranks <= server.num_gpus:
            return wire_bytes / server.nvlink.bandwidth + server.nvlink.latency
        # Cross-server all-to-all: the fraction of each rank's traffic that
        # leaves the server shares the per-server NIC with the other local
        # ranks.
        local = server.num_gpus / num_ranks
        remote_bytes = wire_bytes * (1.0 - local)
        nic_per_rank = server.nic.bandwidth / server.num_gpus
        local_time = wire_bytes * local / server.nvlink.bandwidth
        remote_time = remote_bytes / nic_per_rank
        return local_time + remote_time + server.nic.latency


# ----------------------------------------------------------------------
# The data plane: pluggable Transport
# ----------------------------------------------------------------------
def shard_length(num_elements: int, world: int) -> int:
    """Per-rank shard length under ZeRO's even split (tail padded)."""
    if world <= 0:
        raise CommunicationError("world must be positive")
    return -(-num_elements // world)  # ceil


def copy_pages(dst: np.ndarray, src: np.ndarray, page_bytes: int) -> int:
    """Copy ``src`` into ``dst`` one page-sized chunk at a time.

    Pages are the unit of inter-process traffic (§4.1): every transport
    moves data through this loop so accounting and chunking stay uniform
    regardless of the backing medium. Returns the number of pages moved.
    """
    if dst.shape != src.shape:
        raise CommunicationError(
            f"page copy shape mismatch: {dst.shape} vs {src.shape}"
        )
    per_page = max(1, page_bytes // max(1, dst.itemsize))
    pages = 0
    for start in range(0, dst.size, per_page):
        dst[start:start + per_page] = src[start:start + per_page]
        pages += 1
    return pages


class Transport(abc.ABC):
    """Deterministic rank-to-rank collectives over flat numpy vectors.

    The contract:

    - ``all_gather(shard)`` — every rank contributes an equal-length 1-D
      array and receives the list of all ranks' arrays, indexed by rank.
    - ``reduce_scatter(full)`` — every rank contributes a full-length
      vector, or a stack of ``k`` of them (the same ``k`` everywhere);
      rank ``r`` receives the elementwise sum of everyone's ``r``-th
      even-split slice (zero-padded tail, matching
      :func:`repro.checkpoint.reshard.split_even`). Rank ``q``'s row
      ``j`` is term ``j * world + q``, and summation runs in ascending
      term order, so results are bit-reproducible — and a step that
      deals shard ``s`` to rank ``s % world`` sums its shards in shard
      order at every world size.

    Both are written once, over :meth:`_exchange`; an implementation
    supplies only the byte board (in-process slots, shared-memory
    arenas). Data moves page by page (:func:`copy_pages`); traffic is
    reported through the shared telemetry vocabulary
    (``collective.*_bytes`` plus ``transport.pages``).
    """

    def __init__(self, rank: int, world: int, page_bytes: int = 64 * KiB,
                 telemetry=None):
        if world <= 0 or not 0 <= rank < world:
            raise CommunicationError(
                f"rank {rank} outside a world of {world}"
            )
        if page_bytes <= 0:
            raise CommunicationError("page_bytes must be positive")
        if telemetry is None:
            from repro.telemetry.core import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.rank = rank
        self.world = world
        self.page_bytes = page_bytes
        self.telemetry = telemetry

    @abc.abstractmethod
    def _exchange(self, payload: np.ndarray, reader) -> tuple:
        """Publish ``payload``; run ``reader`` over every rank's vector.

        Copy ``payload`` onto this rank's slot page by page, wait until
        every rank has published, call ``reader(views)`` (``views[r]``
        is rank ``r``'s vector, valid only during the call; returns
        ``(result, pages_read)``), wait until every rank has read.
        Returns ``(result, pages)``, the publish counted too.
        """

    def close(self) -> None:  # pragma: no cover - default no-op
        """Release transport resources (idempotent)."""

    def all_gather(self, shard: np.ndarray) -> list[np.ndarray]:
        """Return every rank's ``shard``, indexed by rank."""
        if shard.ndim != 1:
            raise CommunicationError("transports operate on flat vectors")

        def read_all(views) -> tuple:
            gathered, pages = [], 0
            for rank in range(self.world):
                out = np.empty_like(views[rank])
                pages += copy_pages(out, views[rank], self.page_bytes)
                gathered.append(out)
            return gathered, pages

        gathered, pages = self._exchange(shard, read_all)
        self._account("all_gather", shard.nbytes * self.world, pages)
        return gathered

    def reduce_scatter(self, full: np.ndarray) -> np.ndarray:
        """Return this rank's shard of the elementwise sum of ``full``'s
        rows (one row when ``full`` is a vector) over every rank."""
        if full.ndim not in (1, 2):
            raise CommunicationError(
                "transports operate on flat vectors or stacks of them"
            )
        rows = full.reshape(-1, full.shape[-1])
        length = shard_length(rows.shape[1], self.world)
        stride = length * self.world
        padded = np.zeros((rows.shape[0], stride), dtype=full.dtype)
        padded[:, :rows.shape[1]] = rows

        def read_slices(views) -> tuple:
            acc = np.zeros(length, dtype=padded.dtype)
            staged = np.empty(length, dtype=padded.dtype)
            pages = 0
            # Ascending term order (row-major over ranks): deterministic.
            for lo in range(self.rank * length, padded.size, stride):
                for rank in range(self.world):
                    pages += copy_pages(staged, views[rank][lo:lo + length],
                                        self.page_bytes)
                    acc += staged
            return acc, pages

        acc, pages = self._exchange(padded.reshape(-1), read_slices)
        self._account("reduce_scatter", full.nbytes, pages)
        return acc

    def _account(self, kind: str, nbytes: int, pages: int) -> None:
        if not self.telemetry.enabled:
            return
        self.telemetry.record_collective(kind, nbytes)
        self.telemetry.counter("transport.pages", kind=kind).inc(pages)


class InProcessGroup:
    """A world of :class:`InProcessTransport` ranks in one process.

    Ranks run as threads (tests, :func:`repro.cluster.run_cluster_in_process`);
    a shared slot board plus a cyclic :class:`threading.Barrier` sequence
    the exchange. Deadline-bounded: a rank that never arrives breaks the
    barrier, and a rank that fails calls :meth:`abort`; either way every
    peer raises :class:`~repro.errors.CommunicationError` instead of
    hanging.
    """

    def __init__(self, world: int, page_bytes: int = 64 * KiB,
                 telemetry=None, timeout: float | None = 30.0):
        if world <= 0:
            raise CommunicationError("world must be positive")
        self.world = world
        self.page_bytes = page_bytes
        self.telemetry = telemetry
        self.timeout = timeout
        self._slots: list = [None] * world
        self._barrier = threading.Barrier(world)

    def transport(self, rank: int) -> "InProcessTransport":
        return InProcessTransport(rank, self, self.page_bytes, self.telemetry)

    def abort(self) -> None:
        """Break the barrier: every waiting and later collective raises."""
        self._barrier.abort()

    def _sync(self) -> None:
        try:
            self._barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError as exc:
            raise CommunicationError(
                "in-process collective aborted: a rank never arrived"
            ) from exc


class InProcessTransport(Transport):
    """One rank's view of an :class:`InProcessGroup`: the board is a list."""

    #: A group never re-forms, so it has one membership generation.
    generation = 0

    def __init__(self, rank: int, group: InProcessGroup, page_bytes: int,
                 telemetry=None):
        super().__init__(rank, group.world, page_bytes, telemetry)
        self._group = group

    def barrier(self, name: str) -> None:
        """Meet every rank of the group (``name`` is only a label)."""
        self._group._sync()

    def _exchange(self, payload: np.ndarray, reader) -> tuple:
        staged = np.empty_like(payload)
        pages = copy_pages(staged, payload, self.page_bytes)
        self._group._slots[self.rank] = staged
        self._group._sync()  # every slot published
        result, pages_read = reader(self._group._slots)
        self._group._sync()  # every rank done reading; slots reusable
        return result, pages + pages_read
