"""Exception hierarchy for the Angel-PTM reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries while tests assert on precise subtypes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class OutOfMemoryError(ReproError):
    """A device pool could not satisfy an allocation request.

    Mirrors the OOM condition Algorithm 1 of the paper schedules around.
    """

    def __init__(self, device: str, requested_bytes: int, available_bytes: int):
        self.device = device
        self.requested_bytes = requested_bytes
        self.available_bytes = available_bytes
        super().__init__(
            f"out of memory on {device}: requested {requested_bytes} bytes, "
            f"only {available_bytes} available"
        )


class AllocationError(ReproError):
    """A page- or tensor-level allocation violated an invariant."""


class QuotaExceededError(AllocationError):
    """A tenant asked for pages beyond its fleet quota.

    Raised by the shared :class:`repro.memory.allocator.PageQuota` ledger
    *before* the pool is touched, so one tenant exhausting its share
    surfaces as a typed, attributable error instead of an
    :class:`OutOfMemoryError` that silently starves its co-tenants.
    ``scope`` is ``"tenant"`` when the per-owner quota was hit and
    ``"pool"`` when the ledger's total capacity was.
    """

    def __init__(
        self,
        tenant: str,
        requested_pages: int,
        quota_pages: int,
        used_pages: int,
        scope: str = "tenant",
    ):
        self.tenant = tenant
        self.requested_pages = requested_pages
        self.quota_pages = quota_pages
        self.used_pages = used_pages
        self.scope = scope
        limit = "page quota" if scope == "tenant" else "shared pool capacity"
        super().__init__(
            f"tenant {tenant!r} exceeded {limit}: requested "
            f"{requested_pages} page(s) with {used_pages}/{quota_pages} in use"
        )


class PageStateError(ReproError):
    """A page was used in a way its current state does not permit."""


class TensorStateError(ReproError):
    """A managed tensor was used while not resident / not materialized."""


class SchedulingError(ReproError):
    """The unified scheduler could not produce or execute a valid schedule."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class CommunicationError(ReproError):
    """A collective operation was invoked with mismatched participants."""


class ShardingError(ReproError):
    """Parameter sharding (ZeRO-3 style) was configured inconsistently."""


class GradientError(ReproError):
    """Backward pass produced or consumed an invalid gradient."""


class CheckpointError(ReproError):
    """Saving or restoring training state failed."""


class TransientIOError(ReproError):
    """A tier I/O operation failed in a retryable way.

    Models the transient SSD/file-system hiccups of Section 3.1's failure
    model; a bounded retry with backoff is expected to succeed.
    """


class TierFailedError(ReproError):
    """A memory tier died permanently; no retry will succeed.

    Carries the tier name so callers can rebuild without it.
    """

    def __init__(self, tier: str, message: str | None = None):
        self.tier = tier
        super().__init__(message or f"memory tier {tier!r} failed permanently")


class RankFailedError(ReproError):
    """A training rank crashed (simulated GPU/node failure, Section 3.1)."""

    def __init__(self, rank: int = 0, step: int | None = None):
        self.rank = rank
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"rank {rank} failed{at}")


class ClusterError(ReproError):
    """Base class for multi-process cluster membership failures."""


class GenerationFencedError(ClusterError):
    """The coordinator fenced this membership generation.

    Raised on a worker when a barrier or collective observes that its
    generation died (a peer was evicted, or a newer generation formed).
    The only valid reaction is to abandon the in-flight step and
    re-rendezvous for the next generation.
    """

    def __init__(self, generation: int, reason: str | None = None):
        self.generation = generation
        self.reason = reason
        detail = f": {reason}" if reason else ""
        super().__init__(f"generation {generation} is fenced{detail}")


class RendezvousError(ClusterError):
    """Joining or forming a membership generation failed."""


class RetryExhaustedError(ReproError):
    """A retried operation kept failing past its attempt/deadline budget.

    ``last_error`` holds the final underlying failure (also chained as
    ``__cause__``).
    """

    def __init__(self, attempts: int, last_error: BaseException):
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"operation failed after {attempts} attempt(s): {last_error}"
        )


def join_or_raise(worker, timeout: float, hint: str) -> None:
    """Join a thread or process told to exit; one that outlives the wait
    is an error naming it (``join(timeout)`` alone returns ``None`` either
    way, turning a hang into silence)."""
    if worker.is_alive():
        worker.join(timeout=timeout)
        if worker.is_alive():
            raise SchedulingError(
                f"worker {worker.name!r} still alive {timeout:g}s after "
                f"being told to exit ({hint})"
            )
