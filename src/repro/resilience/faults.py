"""Deterministic fault injection for the hierarchical memory tiers.

Section 3.1 claims production fault tolerance, but ZeRO/PatrickStar-style
offload designs treat the CPU and SSD tiers as perfectly reliable — and
file I/O is exactly where real jobs fail. A :class:`FaultPlan` is a seeded
schedule of failures; a :class:`FaultyBackend` wraps any pool backend
(especially the file-backed SSD tier) and consults the plan once per read
or write request (a vectored ``preadv``/``pwritev`` is one), injecting:

- **transient I/O errors** (:class:`~repro.errors.TransientIOError`) that
  a retry will heal,
- **latency spikes** (a bounded sleep, no state change),
- **torn writes** (a prefix of the bytes lands, then the error) — the
  retried full rewrite heals them,
- **permanent tier death** (:class:`~repro.errors.TierFailedError` from
  then on), which the supervised driver survives by restoring the latest
  checkpoint onto a CPU-only engine and replaying,
- **rank failures** at a scheduled training step, consumed by the
  supervised driver (:class:`~repro.resilience.trainer.ResilientTrainer`).

Every decision is drawn from ``random.Random(seed)`` over a deterministic
operation sequence, so a single-threaded chaos run is exactly
reproducible.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, TierFailedError, TransientIOError


class FaultKind(enum.Enum):
    """What kind of failure an injected fault models."""

    TRANSIENT_READ = "transient_read"
    TRANSIENT_WRITE = "transient_write"
    LATENCY = "latency"
    TORN_WRITE = "torn_write"
    TIER_DEATH = "tier_death"
    RANK_FAILURE = "rank_failure"


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, for the chaos report's fault log."""

    op_index: int
    kind: FaultKind
    tier: str
    detail: str = ""


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of injected failures.

    Rates are per-I/O-request probabilities (a vectored request over many
    page segments is one operation); ``max_transients`` /
    ``max_torn_writes`` bound the budgets so a plan is quiet once spent.
    ``die_after_ops`` kills the tier permanently after that many I/O
    requests; ``rank_failure_at_step`` schedules one rank crash for the
    supervised driver to consume. Safe to share between threads.
    """

    seed: int = 0
    transient_read_rate: float = 0.0
    transient_write_rate: float = 0.0
    max_transients: int | None = None
    torn_write_rate: float = 0.0
    max_torn_writes: int | None = None
    latency_rate: float = 0.0
    latency_seconds: float = 0.0
    die_after_ops: int | None = None
    rank_failure_at_step: int | None = None
    #: Injectable clock for latency spikes (tests pass a no-op).
    sleep: object = time.sleep

    log: list[FaultRecord] = field(default_factory=list, init=False)
    _rng: random.Random = field(default=None, init=False, repr=False)
    _ops: int = field(default=0, init=False)
    _transients: int = field(default=0, init=False)
    _torn: int = field(default=0, init=False)
    _dead_tiers: set = field(default_factory=set, init=False)
    _rank_failure_pending: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        for rate in (
            self.transient_read_rate,
            self.transient_write_rate,
            self.torn_write_rate,
            self.latency_rate,
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError("fault rates must be in [0, 1]")
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._rank_failure_pending = self.rank_failure_at_step is not None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def ops_seen(self) -> int:
        return self._ops

    def count(self, kind: FaultKind) -> int:
        return sum(1 for record in self.log if record.kind == kind)

    def tier_dead(self, tier: str) -> bool:
        return tier in self._dead_tiers

    # ------------------------------------------------------------------
    # Decisions (called by FaultyBackend / ResilientTrainer)
    # ------------------------------------------------------------------
    def _record(self, kind: FaultKind, tier: str, detail: str = "") -> None:
        self.log.append(FaultRecord(self._ops, kind, tier, detail))

    def _transient_budget_left(self) -> bool:
        return self.max_transients is None or self._transients < self.max_transients

    def on_io(self, tier: str, op: str, nbytes: int) -> str | None:
        """Consult the plan before one backend read/write request.

        Raises the injected error, sleeps the injected latency, or returns
        ``"torn"`` to tell the backend to tear the write. The draw is
        atomic under the plan's lock; the sleep happens after releasing
        it, so concurrent requests' latencies overlap.
        """
        with self._lock:
            outcome, delay = self._draw(tier, op, nbytes)
        if delay > 0:
            self.sleep(delay)
        if outcome == "dead":
            raise TierFailedError(tier)
        if outcome == "transient":
            raise TransientIOError(f"injected transient {op} error on {tier}")
        return outcome

    def _draw(self, tier: str, op: str, nbytes: int):
        """(``"dead"``/``"transient"``/``"torn"``/None, latency to sleep)."""
        self._ops += 1
        if self.die_after_ops is not None and self._ops > self.die_after_ops:
            if tier not in self._dead_tiers:
                self._dead_tiers.add(tier)
                self._record(FaultKind.TIER_DEATH, tier, f"after {self.die_after_ops} ops")
        if tier in self._dead_tiers:
            return "dead", 0.0
        delay = 0.0
        if self.latency_rate and self._rng.random() < self.latency_rate:
            self._record(FaultKind.LATENCY, tier, f"{self.latency_seconds}s")
            delay = self.latency_seconds
        if op == "write":
            if (
                self.torn_write_rate
                and (self.max_torn_writes is None or self._torn < self.max_torn_writes)
                and self._rng.random() < self.torn_write_rate
            ):
                self._torn += 1
                self._record(FaultKind.TORN_WRITE, tier, f"{nbytes}B write torn")
                return "torn", delay
            if (
                self.transient_write_rate
                and self._transient_budget_left()
                and self._rng.random() < self.transient_write_rate
            ):
                self._transients += 1
                self._record(FaultKind.TRANSIENT_WRITE, tier)
                return "transient", delay
        elif op == "read":
            if (
                self.transient_read_rate
                and self._transient_budget_left()
                and self._rng.random() < self.transient_read_rate
            ):
                self._transients += 1
                self._record(FaultKind.TRANSIENT_READ, tier)
                return "transient", delay
        return None, delay

    def kill_tier(self, tier: str) -> None:
        """Explicitly declare ``tier`` dead (scripted scenarios)."""
        with self._lock:
            if tier not in self._dead_tiers:
                self._dead_tiers.add(tier)
                self._record(FaultKind.TIER_DEATH, tier, "scripted")

    def take_rank_failure(self, step: int, rank: int = 0) -> bool:
        """True exactly once, when training reaches the scheduled step."""
        if self._rank_failure_pending and step == self.rank_failure_at_step:
            self._rank_failure_pending = False
            self._record(FaultKind.RANK_FAILURE, f"rank{rank}", f"step {step}")
            return True
        return False


class FaultyBackend:
    """Wraps a pool backend; every I/O request consults the :class:`FaultPlan`.

    Speaks the buffer-protocol storage API
    (:class:`repro.protocols.PoolBackend`) and deliberately does NOT
    re-export the inner backend's ``view``: hiding the zero-copy window
    forces every page copy touching this tier through
    ``readinto``/``write_from`` — and therefore through the plan. (A
    view handed out once would let later copies bypass injection.)

    A torn write lands a deterministic prefix of the bytes before raising
    :class:`~repro.errors.TransientIOError`, so the caller's retried full
    rewrite restores consistency — exactly the failure a page-granular
    mover must tolerate.
    """

    def __init__(self, inner, plan: FaultPlan, tier: str = "ssd"):
        self._inner = inner
        self._plan = plan
        self.tier = tier

    def readinto(self, index: int, offset: int, buf) -> int:
        self._plan.on_io(self.tier, "read", memoryview(buf).nbytes)
        return self._inner.readinto(index, offset, buf)

    def write_from(self, index: int, offset: int, buf) -> int:
        self.pwritev([(index, offset, buf)])
        return memoryview(buf).nbytes

    def preadv(self, requests) -> None:
        nbytes = sum(memoryview(buf).nbytes for _, _, buf in requests)
        self._plan.on_io(self.tier, "read", nbytes)
        self._inner.preadv(requests)

    def pwritev(self, requests) -> None:
        """One request, one plan decision; a torn one lands the first
        half of its bytes, in request order, then raises."""
        total = sum(memoryview(buf).nbytes for _, _, buf in requests)
        if self._plan.on_io(self.tier, "write", total) != "torn":
            return self._inner.pwritev(requests)
        left = total // 2
        for index, offset, buf in requests:
            if left > 0:
                self._inner.write_from(index, offset, memoryview(buf).cast("B")[:left])
                left -= memoryview(buf).nbytes
        raise TransientIOError(
            f"injected torn write on {self.tier}: {total // 2}/{total} bytes landed"
        )

    def close(self) -> None:
        self._inner.close()


def inject_faults(pool, plan: FaultPlan, tier: str | None = None) -> None:
    """Wrap ``pool``'s physical backend with a :class:`FaultyBackend`."""
    name = tier or pool.device_kind.name.lower()
    pool.wrap_backend(lambda inner: FaultyBackend(inner, plan, tier=name))
