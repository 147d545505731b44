"""Structured watchdog alerts.

The watchdog engine (:mod:`repro.observe.watchdog`) turns telemetry
streams into :class:`Alert` records — a severity, the rule that fired,
a human-readable message and a machine-readable evidence dict. Alerts
are plain data: they serialize into the ``repro cluster --report`` JSON
and render in the ``repro report`` anomaly section.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """How urgently a human should look at this."""

    INFO = 0
    WARNING = 1
    CRITICAL = 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Alert:
    """One fired watchdog rule with its evidence."""

    rule: str
    severity: Severity
    message: str
    step: int
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.name,
            "message": self.message,
            "step": self.step,
            "evidence": dict(self.evidence),
        }
