"""Streaming anomaly detectors over the telemetry registry.

Angel-PTM's scheduler is driven by observed runtime state — tensor
lifetimes, per-tier waterlines, SSD bandwidth, the lock-free updater's
sweep lag — and the :class:`Watchdog` watches exactly those signals.
Callers invoke :meth:`Watchdog.observe_step` at step boundaries; each
:class:`Rule` keeps its own sliding window over the registry's cumulative
counters and emits :class:`~repro.observe.alerts.Alert` records, which are
kept in :attr:`Watchdog.alerts` and counted in the registry itself
(``watchdog.alerts{rule,severity}``).

Detectors shipped by :func:`default_rules`:

- ``staleness_lag`` — lock-free updater falling behind the GPU loop;
- ``cache_thrash`` — windowed GPU-cache hit-rate collapse;
- ``tier_bandwidth`` — per-(src, dst) edge traffic above budget;
- ``waterline`` — GPU/tier headroom below margin (OOM near-miss);
- ``retry_storm`` — transient-fault retries clustering in time;
- ``worker_liveness`` — a cluster worker missing heartbeats (fed by the
  ``cluster.heartbeat.*`` gauges the supervisor mirrors from the
  coordinator; inert when no cluster is running).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.observe.alerts import Alert, Severity
from repro.units import MiB


@dataclass(frozen=True)
class StepSnapshot:
    """Everything a rule may inspect at one step boundary."""

    step: int
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    #: Per-tier residency: ``{tier: {used_bytes, free_bytes, ...}}`` —
    #: the shape of ``AngelModel.memory_report()``.
    memory: dict = field(default_factory=dict)


class Rule:
    """One streaming detector; subclasses implement :meth:`check`.

    A rule that keeps firing every step would drown the alert log, so the
    base class enforces a per-rule cooldown of ``cooldown_steps`` between
    emissions (severity escalations bypass it).
    """

    name = "rule"

    def __init__(self, cooldown_steps: int = 4):
        self.cooldown_steps = cooldown_steps
        self._last_fired_step: int | None = None
        self._last_severity: Severity | None = None

    def evaluate(self, snapshot: StepSnapshot) -> list[Alert]:
        alert = self.check(snapshot)
        if alert is None:
            return []
        if (
            self._last_fired_step is not None
            and snapshot.step - self._last_fired_step < self.cooldown_steps
            and (self._last_severity is None or alert.severity <= self._last_severity)
        ):
            return []
        self._last_fired_step = snapshot.step
        self._last_severity = alert.severity
        return [alert]

    def check(self, snapshot: StepSnapshot) -> Alert | None:
        raise NotImplementedError


class StalenessLagRule(Rule):
    """Lock-free updater sweep lag vs the configured update interval.

    Reads the ``updater.lag_iterations`` gauge (set by the engine and the
    threaded trainer) or, failing that, derives the lag from the
    ``engine.steps`` / ``engine.update_sweeps`` counters.
    """

    name = "staleness_lag"

    def __init__(self, interval: int = 1, tolerance: float = 1.5, **kw):
        super().__init__(**kw)
        if interval < 1:
            raise ConfigurationError("update_interval must be >= 1")
        #: The engine's configured staleness budget (iterations per
        #: sweep); fire when the updater lags more than
        #: ``tolerance * interval``.
        self.interval = interval
        self.tolerance = tolerance

    def check(self, snapshot: StepSnapshot) -> Alert | None:
        lag = snapshot.gauges.get("updater.lag_iterations")
        if lag is None:
            steps = snapshot.counters.get("engine.steps", 0)
            sweeps = snapshot.counters.get("engine.update_sweeps", 0)
            lag = steps - sweeps * self.interval
        budget = self.interval * self.tolerance
        if lag <= budget:
            return None
        severity = (
            Severity.CRITICAL if lag > 2 * self.interval * self.tolerance
            else Severity.WARNING
        )
        return Alert(
            rule=self.name,
            severity=severity,
            step=snapshot.step,
            message=(
                f"updater lags {lag:.0f} iterations behind the GPU loop "
                f"(budget {budget:.1f} at update_interval={self.interval})"
            ),
            evidence={
                "lag_iterations": float(lag),
                "update_interval": self.interval,
                "budget_iterations": budget,
            },
        )


class CacheThrashRule(Rule):
    """Windowed GPU-cache hit-rate collapse.

    The engine counts ``cache.prefetch_hits`` (already GPU-resident at
    touch) / ``cache.demand_fetches``; a healthy steady state hits. A
    collapse means the working set no longer fits — every fetch pays a
    PCIe round trip.
    """

    name = "cache_thrash"

    def __init__(self, window: int = 8, warmup_steps: int = 3,
                 floor: float = 0.5, critical: float = 0.2, **kw):
        kw.setdefault("cooldown_steps", window)
        super().__init__(**kw)
        self.window = window
        self.warmup_steps = warmup_steps
        self.floor = floor
        self.critical = critical
        self._history: deque[tuple[float, float]] = deque(maxlen=window + 1)

    def check(self, snapshot: StepSnapshot) -> Alert | None:
        hits = snapshot.counters.get("cache.prefetch_hits", 0)
        demands = snapshot.counters.get("cache.demand_fetches", 0)
        self._history.append((hits, demands))
        if snapshot.step <= self.warmup_steps or len(self._history) < 2:
            return None
        first_hits, first_demands = self._history[0]
        delta_hits = hits - first_hits
        delta_demands = demands - first_demands
        total = delta_hits + delta_demands
        if total <= 0:
            return None
        rate = delta_hits / total
        if rate >= self.floor:
            return None
        severity = Severity.CRITICAL if rate < self.critical else Severity.WARNING
        return Alert(
            rule=self.name,
            severity=severity,
            step=snapshot.step,
            message=(
                f"GPU-cache hit rate collapsed to {rate:.0%} over the last "
                f"{len(self._history) - 1} steps (floor {self.floor:.0%})"
            ),
            evidence={
                "window_hit_rate": rate,
                "window_hits": float(delta_hits),
                "window_demand_fetches": float(delta_demands),
                "window_steps": len(self._history) - 1,
            },
        )


class TierBandwidthRule(Rule):
    """Per-(src, dst) edge traffic above a per-step byte budget."""

    name = "tier_bandwidth"
    _PREFIX = "pages.moved_bytes{"

    def __init__(self, budget_bytes_per_step: int = 32 * MiB,
                 window: int = 4, **kw):
        kw.setdefault("cooldown_steps", window)
        super().__init__(**kw)
        self.budget = budget_bytes_per_step
        self.window = window
        self._history: dict[str, deque[float]] = {}

    @staticmethod
    def _edge_of(key: str) -> str:
        # "pages.moved_bytes{dst=gpu,src=cpu}" -> "cpu->gpu"
        labels = dict(
            part.split("=", 1)
            for part in key[key.index("{") + 1:-1].split(",")
        )
        return f"{labels.get('src', '?')}->{labels.get('dst', '?')}"

    def check(self, snapshot: StepSnapshot) -> Alert | None:
        worst: Alert | None = None
        for key, value in snapshot.counters.items():
            if not key.startswith(self._PREFIX):
                continue
            history = self._history.setdefault(
                key, deque(maxlen=self.window + 1)
            )
            history.append(float(value))
            if len(history) < 2:
                continue
            steps = len(history) - 1
            per_step = (history[-1] - history[0]) / steps
            if per_step <= self.budget:
                continue
            severity = (
                Severity.CRITICAL if per_step > 2 * self.budget
                else Severity.WARNING
            )
            edge = self._edge_of(key)
            alert = Alert(
                rule=self.name,
                severity=severity,
                step=snapshot.step,
                message=(
                    f"tier edge {edge} moving {per_step / MiB:.1f} MiB/step "
                    f"(budget {self.budget / MiB:.1f} MiB/step)"
                ),
                evidence={
                    "edge": edge,
                    "bytes_per_step": per_step,
                    "budget_bytes_per_step": float(self.budget),
                    "window_steps": steps,
                },
            )
            if worst is None or alert.severity > worst.severity:
                worst = alert
        return worst


class WaterlineRule(Rule):
    """Tier headroom below margin: the OOM-near-miss tracker.

    Tracks ``free / capacity`` per tier from the memory report supplied
    at each step boundary; the recent waterline history rides along as
    evidence so a fired alert explains the trajectory, not just the
    instant.
    """

    name = "waterline"

    def __init__(self, margin: float = 0.10, critical: float = 0.02,
                 history: int = 16, **kw):
        super().__init__(**kw)
        if not 0 <= critical <= margin < 1:
            raise ConfigurationError(
                "need 0 <= waterline critical <= margin < 1"
            )
        self.margin = margin
        self.critical = critical
        self._history: dict[str, deque[float]] = {}
        self._history_len = history

    def check(self, snapshot: StepSnapshot) -> Alert | None:
        worst: Alert | None = None
        for tier, stats in snapshot.memory.items():
            used = stats.get("used_bytes", 0)
            free = stats.get("free_bytes", 0)
            capacity = used + free
            if capacity <= 0:
                continue
            headroom = free / capacity
            history = self._history.setdefault(
                tier, deque(maxlen=self._history_len)
            )
            history.append(headroom)
            if headroom >= self.margin:
                continue
            severity = (
                Severity.CRITICAL if headroom <= self.critical
                else Severity.WARNING
            )
            alert = Alert(
                rule=self.name,
                severity=severity,
                step=snapshot.step,
                message=(
                    f"{tier} headroom {headroom:.1%} below the "
                    f"{self.margin:.0%} margin (OOM near-miss)"
                ),
                evidence={
                    "tier": tier,
                    "headroom_fraction": headroom,
                    "margin": self.margin,
                    "free_bytes": float(free),
                    "capacity_bytes": float(capacity),
                    "recent_headroom": [round(h, 4) for h in history],
                },
            )
            if worst is None or alert.severity > worst.severity:
                worst = alert
        return worst


class RetryStormRule(Rule):
    """Transient-fault retries clustering inside a step window."""

    name = "retry_storm"

    def __init__(self, window: int = 8, threshold: int = 6,
                 critical: int = 16, **kw):
        kw.setdefault("cooldown_steps", window)
        super().__init__(**kw)
        self.window = window
        self.threshold = threshold
        self.critical = critical
        self._history: deque[float] = deque(maxlen=window + 1)

    def check(self, snapshot: StepSnapshot) -> Alert | None:
        self._history.append(float(snapshot.counters.get("retry.attempts", 0)))
        if len(self._history) < 2:
            return None
        in_window = self._history[-1] - self._history[0]
        if in_window < self.threshold:
            return None
        severity = (
            Severity.CRITICAL if in_window >= self.critical else Severity.WARNING
        )
        return Alert(
            rule=self.name,
            severity=severity,
            step=snapshot.step,
            message=(
                f"{in_window:.0f} I/O retries in the last "
                f"{len(self._history) - 1} steps (threshold {self.threshold})"
            ),
            evidence={
                "retries_in_window": in_window,
                "window_steps": len(self._history) - 1,
                "threshold": self.threshold,
            },
        )


class WorkerLivenessRule(Rule):
    """A cluster worker stopped heartbeating (crash/partition suspect).

    The cluster supervisor mirrors the coordinator's failure-detector
    view into ``cluster.heartbeat.missed{worker=...}`` gauges (plus
    ``cluster.heartbeat.age_seconds``); this rule fires WARNING when any
    worker misses a deadline and CRITICAL once the miss count reaches
    the eviction territory. Runs without a cluster too — no gauges means
    no alert.
    """

    name = "worker_liveness"
    _PREFIX = "cluster.heartbeat.missed{"

    def __init__(self, warning: int = 1, critical: int = 2, **kw):
        super().__init__(**kw)
        if not 1 <= warning <= critical:
            raise ConfigurationError(
                "need 1 <= warning <= critical missed heartbeats"
            )
        self.warning = warning
        self.critical = critical

    @staticmethod
    def _worker_of(key: str) -> str:
        labels = dict(
            part.split("=", 1)
            for part in key[key.index("{") + 1:-1].split(",")
        )
        return labels.get("worker", "?")

    def check(self, snapshot: StepSnapshot) -> Alert | None:
        lagging: list[tuple[str, float]] = []
        for key, missed in snapshot.gauges.items():
            if key.startswith(self._PREFIX) and missed >= self.warning:
                lagging.append((self._worker_of(key), float(missed)))
        if not lagging:
            return None
        lagging.sort(key=lambda item: (-item[1], item[0]))
        worst_worker, worst_missed = lagging[0]
        severity = (
            Severity.CRITICAL if worst_missed >= self.critical
            else Severity.WARNING
        )
        return Alert(
            rule=self.name,
            severity=severity,
            step=snapshot.step,
            message=(
                f"worker {worst_worker} missed {worst_missed:.0f} "
                f"heartbeat(s) (evict threshold {self.critical}); "
                f"{len(lagging)} worker(s) lagging"
            ),
            evidence={
                "workers": {worker: missed for worker, missed in lagging},
                "missed_warning": self.warning,
                "missed_critical": self.critical,
            },
        )


def default_rules() -> list[Rule]:
    """The standard detector set at its default thresholds."""
    return [
        StalenessLagRule(),
        CacheThrashRule(),
        TierBandwidthRule(),
        WaterlineRule(),
        RetryStormRule(),
        WorkerLivenessRule(),
    ]


class Watchdog:
    """Evaluates the rule set at step boundaries and publishes alerts."""

    def __init__(self, telemetry=None, rules: list[Rule] | None = None):
        if telemetry is None:
            from repro.telemetry.core import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        #: The telemetry whose registry the watchdog both reads (rule
        #: inputs) and writes (``watchdog.alerts`` counters).
        self.telemetry = telemetry
        #: The detectors; pass ``rules`` to set thresholds.
        self.rules = rules if rules is not None else default_rules()
        self.alerts: list[Alert] = []

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def snapshot(self, step: int, memory: dict | None = None) -> StepSnapshot:
        """Freeze the registry (and an optional memory report) for rules."""
        counters: dict = {}
        gauges: dict = {}
        if self.telemetry.enabled:
            dump = self.telemetry.registry.dump()
            counters = dump["counters"]
            gauges = dump["gauges"]
        return StepSnapshot(
            step=step, counters=counters, gauges=gauges, memory=memory or {}
        )

    def observe_step(
        self,
        step: int,
        memory: dict | None = None,
        snapshot: StepSnapshot | None = None,
    ) -> list[Alert]:
        """Evaluate every rule at one step boundary; returns new alerts."""
        snap = snapshot if snapshot is not None else self.snapshot(step, memory)
        fired: list[Alert] = []
        for rule in self.rules:
            fired.extend(rule.evaluate(snap))
        for alert in fired:
            self._emit(alert)
        return fired

    def observe_engine(self, engine, step: int | None = None) -> list[Alert]:
        """Convenience: observe an :class:`AngelModel` at a step boundary."""
        return self.observe_step(
            step if step is not None else getattr(engine, "_iteration", 0),
            memory=engine.memory_report(),
        )

    def _emit(self, alert: Alert) -> None:
        self.alerts.append(alert)
        if self.telemetry.enabled:
            self.telemetry.counter(
                "watchdog.alerts", rule=alert.rule, severity=alert.severity.name
            ).inc()
            self.telemetry.instant(
                f"alert/{alert.rule}", track="watchdog",
                severity=alert.severity.name, step=alert.step,
            )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def payload(self) -> list[dict]:
        """The alert log as plain dicts (lands in the fleet report)."""
        return [alert.to_dict() for alert in self.alerts]
