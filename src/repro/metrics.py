"""Fault counters: the resilience vocabulary as a registry view."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.telemetry.registry import MetricsRegistry


#: The fault/cure vocabulary, in export order.
_FAULT_FIELDS = (
    "retries", "transient_faults", "torn_writes",
    "latency_injections", "tier_deaths",
    "rank_failures", "recoveries",
    "checkpoints_saved", "checkpoints_restored",
)


class FaultCounters:
    """Resilience observability: every fault seen and every cure applied.

    Incremented by the retry/recovery machinery in
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
