"""Training metrics: throughput, losses and memory high-water marks.

A production training system logs these continuously; the recorder here
collects per-step samples, computes summaries and exports CSV for offline
analysis — and can snapshot an AngelModel's per-tier page usage alongside.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.telemetry.clock import WALL_CLOCK, Clock
from repro.telemetry.registry import MetricsRegistry


@dataclass
class StepRecord:
    """One training step's measurements."""

    step: int
    loss: float
    samples: int
    elapsed: float
    lr: float = 0.0
    grad_norm: float = 0.0
    gpu_pages: int = 0
    cpu_pages: int = 0
    ssd_pages: int = 0


#: The fault/cure vocabulary, in export order.
_FAULT_FIELDS = (
    "retries", "transient_faults", "torn_writes",
    "latency_injections", "tier_deaths", "degradations",
    "rank_failures", "recoveries",
    "checkpoints_saved", "checkpoints_restored", "reshards",
)


class FaultCounters:
    """Resilience observability: every fault seen and every cure applied.

    Incremented by the retry/degradation/recovery machinery in
    ``repro.resilience`` so chaos tests (and operators) can assert exactly
    what happened during a run — Section 3.1's fault tolerance made
    countable.

    This is a thin compatibility view over ``faults.*`` counters in a
    :class:`~repro.telemetry.registry.MetricsRegistry`: attribute reads
    and writes go straight to the registry, so fault counts share one
    export path with page-traffic and retry-latency telemetry. Pass the
    run's registry (e.g. ``Telemetry().registry``) to join it; the
    default is a private registry, preserving the old standalone usage.
    """

    def __init__(self, registry: MetricsRegistry | None = None, **initial: int):
        object.__setattr__(
            self, "_registry",
            registry if registry is not None else MetricsRegistry(),
        )
        for name in _FAULT_FIELDS:
            self._registry.counter(f"faults.{name}")
        for name, value in initial.items():
            if name not in _FAULT_FIELDS:
                raise ConfigurationError(f"unknown fault counter {name!r}")
            setattr(self, name, value)

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    def __getattr__(self, name: str) -> int:
        if name in _FAULT_FIELDS:
            return self._registry.counter(f"faults.{name}").value
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        if name in _FAULT_FIELDS:
            self._registry.counter(f"faults.{name}")._force(int(value))
        else:
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"FaultCounters({inner})"

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _FAULT_FIELDS}

    def absorb_plan(self, plan) -> None:
        """Fold a FaultPlan's injection log into these counters."""
        from repro.resilience.faults import FaultKind

        self.transient_faults += plan.count(FaultKind.TRANSIENT_READ)
        self.transient_faults += plan.count(FaultKind.TRANSIENT_WRITE)
        self.torn_writes += plan.count(FaultKind.TORN_WRITE)
        self.latency_injections += plan.count(FaultKind.LATENCY)


@dataclass
class MetricsRecorder:
    """Collects step records and summarizes them."""

    records: list[StepRecord] = field(default_factory=list)
    resilience: FaultCounters | None = None
    clock: Clock = field(default_factory=lambda: WALL_CLOCK)
    _step_started: float | None = field(default=None, repr=False)

    def start_step(self) -> None:
        self._step_started = self.clock.perf()

    def end_step(
        self,
        loss: float,
        samples: int,
        lr: float = 0.0,
        grad_norm: float = 0.0,
        engine=None,
    ) -> StepRecord:
        """Close the step opened by :meth:`start_step` and record it."""
        if self._step_started is None:
            raise ConfigurationError("end_step() called without start_step()")
        elapsed = self.clock.perf() - self._step_started
        self._step_started = None
        pages = {"gpu": 0, "cpu": 0, "ssd": 0}
        if engine is not None:
            for tier, stats in engine.memory_report().items():
                pages[tier] = stats["pages_in_use"]
        record = StepRecord(
            step=len(self.records),
            loss=loss,
            samples=samples,
            elapsed=elapsed,
            lr=lr,
            grad_norm=grad_norm,
            gpu_pages=pages["gpu"],
            cpu_pages=pages["cpu"],
            ssd_pages=pages["ssd"],
        )
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        return len(self.records)

    def throughput(self, tail: int | None = None) -> float:
        """Samples per second over the last ``tail`` steps (or all)."""
        window = self.records[-tail:] if tail else self.records
        if not window:
            return 0.0
        elapsed = sum(r.elapsed for r in window)
        if elapsed == 0:
            return 0.0
        return sum(r.samples for r in window) / elapsed

    def mean_loss(self, tail: int | None = None) -> float:
        window = self.records[-tail:] if tail else self.records
        if not window:
            raise ConfigurationError("no steps recorded")
        return sum(r.loss for r in window) / len(window)

    def peak_pages(self, tier: str) -> int:
        attr = f"{tier}_pages"
        return max((getattr(r, attr) for r in self.records), default=0)

    def summary(self) -> dict:
        summary = {
            "steps": self.num_steps,
            "final_loss": self.mean_loss(tail=max(1, self.num_steps // 10))
            if self.records else None,
            "throughput": self.throughput(),
            "peak_gpu_pages": self.peak_pages("gpu"),
            "peak_cpu_pages": self.peak_pages("cpu"),
            "peak_ssd_pages": self.peak_pages("ssd"),
        }
        if self.resilience is not None:
            summary["resilience"] = self.resilience.as_dict()
        return summary

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self, path: str) -> None:
        fields = [
            "step", "loss", "samples", "elapsed", "lr", "grad_norm",
            "gpu_pages", "cpu_pages", "ssd_pages",
        ]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            for record in self.records:
                writer.writerow({name: getattr(record, name) for name in fields})
