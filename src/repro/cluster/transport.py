"""Page-granularity collectives over one shared arena per rank.

A rank's transport lives for one membership generation and owns one
named :class:`~repro.memory.arena.ArenaPoolBackend`, sized up front for
the largest vector the rank will publish. A collective is one exchange
round on those long-lived arenas: write the contribution page by page,
meet the group at a coordinator barrier ("everyone has published"), read
the peers' arenas in ascending rank order (so reductions are
bit-reproducible), meet a second barrier ("everyone has read"). Peers
are attached once, after the first publish barrier, by the deterministic
name ``session·g<generation>·r<rank>``: concurrent runs and successive
generations never collide, and nothing is created or unlinked per step.

Fencing is how death propagates: a barrier raises
:class:`~repro.errors.GenerationFencedError` when the coordinator has
evicted a member. ``close()`` always unlinks the rank's own arena; a
transport that saw a fence also unlinks its generation's peer names,
because a SIGKILLed rank cannot.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClusterError, GenerationFencedError
from repro.memory.arena import (
    ArenaPoolBackend,
    attach_segment,
    scoped_segment_name,
    unlink_segment,
)
from repro.zero.collectives import Transport, copy_pages


class SharedMemoryTransport(Transport):
    """One rank's collectives for one generation of a process cluster.

    ``barrier`` is a callable ``barrier(name) -> reply`` that blocks
    until every member of the generation arrives, raising
    :class:`GenerationFencedError` if the generation is fenced first —
    in practice the coordinator's barrier RPC. ``capacity`` is the byte
    size of the largest vector this rank will publish.
    """

    def __init__(self, rank: int, world: int, generation: int, session: str,
                 barrier, page_bytes: int, capacity: int, telemetry=None):
        super().__init__(rank, world, page_bytes, telemetry)
        self.generation = generation
        self.session = session
        self.capacity = capacity
        self._barrier = barrier
        self._seq = 0
        self._fenced = False
        self._peers: dict = {}
        self._arena = ArenaPoolBackend(
            -(-capacity // page_bytes), page_bytes, shared=True,
            name=self._arena_name(rank),
        )

    def _arena_name(self, rank: int) -> str:
        return scoped_segment_name(
            self.session, "g", self.generation, "r", rank
        )

    def barrier(self, name: str):
        """Meet the generation; remember a fence for :meth:`close`."""
        try:
            return self._barrier(name)
        except GenerationFencedError:
            self._fenced = True
            raise

    def _exchange(self, payload: np.ndarray, reader) -> tuple:
        if payload.nbytes > self.capacity:
            raise ClusterError(
                f"{payload.nbytes}-byte payload exceeds the "
                f"{self.capacity}-byte collective arena"
            )
        seq = self._seq
        self._seq += 1
        # Arena views must not outlive the round: a live one makes
        # close() raise BufferError over whatever error got us there.
        views: list = [None] * self.world
        try:
            views[self.rank] = np.frombuffer(
                self._arena.view(0, 0, payload.nbytes), dtype=payload.dtype
            )
            pages = copy_pages(views[self.rank], payload, self.page_bytes)
            self.barrier(f"c{seq}-publish")
            for rank in range(self.world):
                if rank == self.rank:
                    continue
                if rank not in self._peers:
                    self._peers[rank] = attach_segment(self._arena_name(rank))
                views[rank] = np.frombuffer(
                    self._peers[rank].buf, dtype=payload.dtype,
                    count=payload.size,
                )
            result, pages_read = reader(views)
            self.barrier(f"c{seq}-drain")
            return result, pages + pages_read
        finally:
            views.clear()

    def close(self) -> None:
        for peer in self._peers.values():
            peer.close()
        self._peers.clear()
        self._arena.close()
        if self._fenced:
            for rank in range(self.world):
                if rank != self.rank:
                    unlink_segment(self._arena_name(rank))
