"""Reading hardware specs from JSON.

A downstream operator describes their cluster once — GPU count and memory,
DDR capacity, link bandwidths, SSD size — and every planner, simulator and
CLI command consumes the same file. The schema mirrors
:func:`~repro.hardware.server.a100_server`'s parameters, so Table 3 is the
default when a field is omitted.
"""

from __future__ import annotations

import json

from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.hardware.server import a100_server
from repro.units import GB, GiB, TB

#: JSON fields accepted under "server", mapped to a100_server kwargs and
#: the unit each human-friendly field uses.
_SERVER_FIELDS = {
    "name": ("name", None),
    "num_gpus": ("num_gpus", None),
    "gpu_memory_gib": ("gpu_memory_bytes", GiB),
    "cpu_memory_gib": ("cpu_memory_bytes", GiB),
    "ssd_tb": ("ssd_bytes", TB),
    "pcie_gbps": ("pcie_bandwidth", GB),
    "nvlink_gbps": ("nvlink_bandwidth", GB),
    "ssd_gbps": ("ssd_bandwidth", GB),
    "nic_gbps": ("nic_bandwidth", GB),
    "gpu_tflops": ("gpu_flops", 1e12),
}


def reject_unknown_fields(mapping: dict, known, what: str) -> None:
    """Schema guard: fail loudly on fields no consumer reads.

    :func:`cluster_from_dict` checks both the top-level object and its
    ``server`` object with it, so a typoed field at either level is an
    error instead of a silently ignored knob.
    """
    if not isinstance(mapping, dict):
        raise ConfigurationError(f"{what} config must be a JSON object")
    unknown = set(mapping) - set(known)
    if unknown:
        raise ConfigurationError(
            f"unknown {what} fields: {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )


def cluster_from_dict(config: dict) -> ClusterSpec:
    """Build a cluster from a parsed JSON object."""
    reject_unknown_fields(config, ("num_servers", "server"), "cluster")
    num_servers = config.get("num_servers", 1)
    if (not isinstance(num_servers, int) or isinstance(num_servers, bool)
            or num_servers < 1):
        raise ConfigurationError(
            f"num_servers must be an integer >= 1, got {num_servers!r}"
        )
    server_config = config.get("server", {})
    reject_unknown_fields(server_config, _SERVER_FIELDS, "server")
    kwargs = {}
    for field, value in server_config.items():
        name, unit = _SERVER_FIELDS[field]
        if unit is None or value is None:
            kwargs[name] = value
        else:
            kwargs[name] = value * unit
    if isinstance(kwargs.get("gpu_memory_bytes"), float):
        kwargs["gpu_memory_bytes"] = int(kwargs["gpu_memory_bytes"])
    if isinstance(kwargs.get("cpu_memory_bytes"), float):
        kwargs["cpu_memory_bytes"] = int(kwargs["cpu_memory_bytes"])
    if isinstance(kwargs.get("ssd_bytes"), float):
        kwargs["ssd_bytes"] = int(kwargs["ssd_bytes"])
    return ClusterSpec(server=a100_server(**kwargs), num_servers=num_servers)


def load_cluster(path: str) -> ClusterSpec:
    """Read a cluster description from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read cluster config {path!r}: {exc}") from exc
    return cluster_from_dict(config)
