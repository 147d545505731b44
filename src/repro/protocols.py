"""Structural types for the engine's pluggable collaborators.

:class:`~repro.engine.angel.AngelConfig` historically typed its optional
collaborators as ``object | None`` to avoid importing the resilience and
telemetry packages from the engine (they build *on* it). These
``typing.Protocol`` definitions keep the layering — no imports, purely
structural — while documenting and type-checking exactly the surface the
engine relies on. Any object with the right methods satisfies them;
:class:`~repro.resilience.faults.FaultPlan`,
:class:`~repro.resilience.retry.RetryPolicy` and
:class:`~repro.telemetry.core.Telemetry` are the in-repo implementations.

The physical storage contract of the page pools lives here too:
:class:`PoolBackend` is the buffer-protocol API every tier backend
implements (``readinto``/``write_from`` operate on caller-supplied
buffers, never intermediate ``bytes``), and :class:`ArenaBackendLike`
extends it with ``view`` for RAM-like tiers whose arena can hand out
zero-copy ``memoryview`` windows.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class PoolBackend(Protocol):
    """Physical page storage for one :class:`~repro.memory.pool.DevicePool`.

    A backend owns ``num_pages`` fixed-size page slots. All data movement
    is expressed over the buffer protocol: ``readinto`` fills a
    caller-supplied writable buffer, ``write_from`` consumes a readable
    one, and neither ever materializes an intermediate ``bytes`` object.
    ``buf`` may span *multiple consecutive pages* — backends store their
    pages contiguously (one arena), so a coalesced run of pages is one
    call. Both return the number of bytes transferred, which must equal
    ``len(buf)`` (short reads are looped over internally and a shortfall
    is an error, never a silent truncation).

    ``preadv``/``pwritev`` are the vectored pair: one call is ONE I/O
    request over ``[(index, offset, buf), ...]``, moving only those bytes.
    """

    def readinto(self, index: int, offset: int, buf) -> int: ...

    def write_from(self, index: int, offset: int, buf) -> int: ...

    def preadv(self, requests) -> None: ...

    def pwritev(self, requests) -> None: ...

    def close(self) -> None: ...


@runtime_checkable
class ArenaBackendLike(PoolBackend, Protocol):
    """A :class:`PoolBackend` whose arena supports zero-copy windows.

    RAM-like tiers (process memory, ``multiprocessing.shared_memory``)
    additionally expose ``view``: a writable ``memoryview`` of the page
    range starting at ``index * page_bytes + offset``, valid until
    ``close``. Two arena backends move a page with a single
    ``dst.view(...)[:] = src.view(...)`` slice copy; file tiers do not
    implement ``view`` and take the ``readinto``/``write_from`` path.
    """

    def view(self, index: int, offset: int, nbytes: int) -> memoryview: ...


@runtime_checkable
class FaultPlanLike(Protocol):
    """Injects faults into a tier's physical backend (chaos testing).

    The engine hands the plan to
    :func:`repro.resilience.faults.inject_faults`, which wraps the SSD
    pool's backend; ``on_io`` is consulted once per read/write request
    and may raise, sleep, or corrupt (torn writes return ``"torn"``).
    """

    def on_io(self, tier: str, op: str, nbytes: int) -> str | None: ...

    def tier_dead(self, tier: str) -> bool: ...


@runtime_checkable
class RetryPolicyLike(Protocol):
    """Absorbs transient tier-I/O errors on page moves and state flushes.

    ``run`` executes ``fn``, retrying
    :class:`~repro.errors.TransientIOError` with backoff until a deadline
    and re-raising anything permanent.
    """

    def run(self, fn: Any) -> Any: ...


@runtime_checkable
class TelemetryLike(Protocol):
    """The observability facade the engine emits into.

    Structural mirror of :class:`repro.telemetry.core.Telemetry`: spans
    for forward/backward/update sweeps, get-or-create instruments, and
    the domain vocabulary for page traffic and pipeline stalls. A
    disabled instance must keep every operation a cheap no-op.
    """

    enabled: bool
    clock: Any

    def span(self, name: str, track: str | None = None, **args: Any) -> Any: ...

    def counter(self, name: str, **labels: Any) -> Any: ...

    def gauge(self, name: str, **labels: Any) -> Any: ...

    def histogram(self, name: str, **labels: Any) -> Any: ...

    def record_page_move(self, src: str, dst: str, nbytes: int) -> None: ...

    def record_prefetch(self, outcome: str) -> None: ...

    def record_stall(self, edge: str, seconds: float) -> None: ...


__all__ = [
    "ArenaBackendLike",
    "FaultPlanLike",
    "PoolBackend",
    "RetryPolicyLike",
    "TelemetryLike",
]
