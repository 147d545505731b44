"""Retry with exponential backoff, jitter and a deadline.

The retry ladder of the fault model (docs/resilience.md): transient tier
I/O errors are absorbed here; permanent failures (``TierFailedError``,
``RankFailedError``) are *not* retried — they escalate to the recovery
layer above.

Jitter is drawn from a seeded RNG so chaos runs are bit-reproducible, and
time comes from an injectable :class:`~repro.telemetry.clock.Clock` —
with a :class:`~repro.telemetry.clock.ManualClock` the backoff schedule
and deadline arithmetic are testable deterministically, without sleeping.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, RetryExhaustedError, TransientIOError
from repro.telemetry.clock import WALL_CLOCK, Clock


@dataclass
class RetryPolicy:
    """Bounded exponential backoff: ``base * multiplier**n``, jittered.

    ``run(fn)`` calls ``fn`` until it succeeds, a non-retryable error is
    raised, or the attempt/deadline budget is spent — then raises
    :class:`RetryExhaustedError` chaining the last failure.
    """

    max_attempts: int = 5
    base_delay: float = 0.0005
    multiplier: float = 2.0
    max_delay: float = 0.05
    jitter: float = 0.5
    deadline: float | None = None
    seed: int = 0
    retry_on: tuple = (TransientIOError,)
    #: Time source for deadlines and backoff sleeps; a ManualClock makes
    #: both deterministic.
    clock: Clock = None
    #: Explicit sleep callable; overrides ``clock.sleep`` when given
    #: (legacy injection point, kept for compatibility).
    sleep: object = None
    on_retry: object = None  # callable(attempt, exc, delay) or None
    #: Optional repro.telemetry.Telemetry: every retry increments the
    #: ``retry.attempts`` counter and lands its backoff delay in the
    #: ``retry.backoff_seconds`` histogram.
    telemetry: object = None

    #: Total retries performed over this policy's lifetime (observability).
    retries: int = field(default=0, init=False)
    _rng: random.Random = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ConfigurationError("delays and jitter must be >= 0")
        if self.clock is None:
            self.clock = WALL_CLOCK
        if self.sleep is None:
            self.sleep = self.clock.sleep
        self._rng = random.Random(self.seed)
        # Guards _rng and retries: the sweep and the writeback thread
        # retry through one policy concurrently.
        self._lock = threading.Lock()

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        with self._lock:
            return raw * (1.0 + self.jitter * self._rng.random())

    def run(self, fn):
        """Call ``fn`` under this policy and return its result."""
        start = self.clock.monotonic()
        attempt = 1
        while True:
            try:
                return fn()
            except self.retry_on as exc:
                if attempt >= self.max_attempts:
                    raise RetryExhaustedError(attempt, exc) from exc
                delay = self.backoff(attempt)
                if (
                    self.deadline is not None
                    and self.clock.monotonic() - start + delay > self.deadline
                ):
                    raise RetryExhaustedError(attempt, exc) from exc
                with self._lock:
                    self.retries += 1
                if self.telemetry is not None:
                    self.telemetry.counter("retry.attempts").inc()
                    self.telemetry.histogram("retry.backoff_seconds").observe(delay)
                    self.telemetry.instant("retry", error=type(exc).__name__)
                if self.on_retry is not None:
                    self.on_retry(attempt, exc, delay)
                if delay > 0:
                    self.sleep(delay)
                attempt += 1
