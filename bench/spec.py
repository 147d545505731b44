"""``BENCHMARK.json`` as the single declaration of metrics and bounds."""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def load(path: str = BENCHMARK_JSON) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(spec: dict) -> list[str]:
    return [entry["name"] for entry in spec["workloads"]]


def metric_table(spec: dict, traced: bool) -> dict[str, dict]:
    """``{name: declaration}`` of the metrics one pass must print."""
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    return {entry["name"]: entry for entry in entries}


def render_metrics(spec: dict, traced: bool, values: dict) -> dict:
    """The ``metrics`` object of the result line.

    Every declared metric of the pass is printed, so a reader never has
    to guess whether a name was dropped: a layer the workload does not
    exercise reads 0. A name the workload produced but the declaration
    lacks is a bug in the benchmark and raises.
    """
    table = metric_table(spec, traced)
    unknown = sorted(set(values) - set(table))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": entry["unit"]}
        for name, entry in table.items()
    }
