"""Health monitoring and forensics over the telemetry streams.

Three consumers of the recording layer (:mod:`repro.telemetry`):

- :mod:`repro.observe.watchdog` — streaming anomaly detectors evaluated
  at step boundaries, emitting :class:`~repro.observe.alerts.Alert`
  records;
- :mod:`repro.observe.forensics` — per-tier residency timelines and the
  forensic dump attached to every :class:`~repro.errors.OutOfMemoryError`;
- :mod:`repro.observe.report` — the ``repro report`` generator merging
  BENCH payloads, traces and alert logs into one run report.
"""

from repro.observe.alerts import Alert, Severity
from repro.observe.forensics import ForensicDump, ForensicRecorder, ResidencySample
from repro.observe.report import (
    render_html,
    render_markdown,
    write_report,
)
from repro.observe.watchdog import (
    CacheThrashRule,
    RetryStormRule,
    Rule,
    StalenessLagRule,
    StepSnapshot,
    TierBandwidthRule,
    Watchdog,
    WaterlineRule,
    WorkerLivenessRule,
    default_rules,
)

__all__ = [
    "Alert",
    "Severity",
    "ForensicDump",
    "ForensicRecorder",
    "ResidencySample",
    "render_html",
    "render_markdown",
    "write_report",
    "CacheThrashRule",
    "RetryStormRule",
    "Rule",
    "StalenessLagRule",
    "StepSnapshot",
    "TierBandwidthRule",
    "Watchdog",
    "WaterlineRule",
    "WorkerLivenessRule",
    "default_rules",
]
