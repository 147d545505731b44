"""Checked-in lint baseline: accepted findings pass CI, regressions fail.

The baseline is a small JSON document committed at the repo root
(``concurrency_baseline.json``). Each entry records a finding
fingerprint (``rule:path:Class.attr`` — stable across line-number
churn) and a human reason why the pattern is accepted. ``repro check
--self`` compares the live lint run against it:

- a finding whose fingerprint is in the baseline is **accepted**;
- a finding not in the baseline is **new** and fails the gate;
- a baseline entry with no live finding is **resolved** (reported so
  the baseline can be pruned, but never a failure).

With the cross-process rules (SA004-SA005) the accepted entries fall
into two deliberate classes, each explained in its ``reason``:

- **ownership-by-protocol** — the one attach helper never unlinks
  because the arena's creator does, in its ``close()`` (SA004);
- **bounded-by-someone-else blocking** — worker/coordinator ``recv()``
  calls whose wait is bounded by pipe EOF on peer death, the
  coordinator's heartbeat eviction, and ultimately the supervisor's
  ``run_timeout`` SIGKILL; and in-process pipeline waits whose producer
  shares the process and is joined at ``close()`` (SA005).

New code should prefer the fixable patterns over new baseline entries:
``poll(timeout)`` before ``recv()`` (see ``_bounded_recv`` in the
supervisor), ``replace(...)`` strips before spawns, creator-side
``close()`` + ``unlink()`` for shared memory.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.lint import LintFinding
from repro.errors import ConfigurationError

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "concurrency_baseline.json"


def load_baseline(path: Path | str) -> dict[str, str]:
    """``{fingerprint: reason}`` from a baseline file; {} if absent."""
    path = Path(path)
    if not path.exists():
        return {}
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"baseline {path} is not valid JSON: {exc}")
    if payload.get("version") != BASELINE_VERSION:
        raise ConfigurationError(
            f"baseline {path} has version {payload.get('version')!r}, "
            f"expected {BASELINE_VERSION}"
        )
    accepted = {}
    for entry in payload.get("accepted", []):
        accepted[entry["fingerprint"]] = entry.get("reason", "")
    return accepted


def save_baseline(
    path: Path | str,
    findings: list[LintFinding],
    reasons: dict[str, str] | None = None,
) -> None:
    """Write the current findings as the accepted baseline.

    ``reasons`` (fingerprint -> text) lets ``--update-baseline`` keep
    the explanations already recorded for surviving entries.
    """
    reasons = reasons or {}
    entries = [
        {
            "fingerprint": finding.fingerprint,
            "reason": reasons.get(
                finding.fingerprint, "accepted: " + finding.message
            ),
        }
        for finding in sorted(findings, key=lambda f: f.fingerprint)
    ]
    payload = {"version": BASELINE_VERSION, "accepted": entries}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def compare(
    findings: list[LintFinding], baseline: dict[str, str]
) -> dict[str, list]:
    """Split live findings into new vs accepted, and list resolved entries."""
    live = {finding.fingerprint for finding in findings}
    return {
        "new": [f for f in findings if f.fingerprint not in baseline],
        "accepted": [f for f in findings if f.fingerprint in baseline],
        "resolved": sorted(fp for fp in baseline if fp not in live),
    }
