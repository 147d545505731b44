"""Byte and time units used throughout the library.

Bandwidths in the paper (Table 3 and Section 4.3) are quoted in GB/s with
decimal prefixes; memory capacities are binary. We keep both conventions
explicit to avoid silent unit mistakes.
"""

from __future__ import annotations

KB = 1000
MB = 1000**2
GB = 1000**3
TB = 1000**4

KiB = 1024
MiB = 1024**2
GiB = 1024**3
TiB = 1024**4

US = 1e-6
MS = 1e-3


def fmt_bytes(num_bytes: float) -> str:
    """Render a byte count with a human-friendly binary suffix."""
    value = float(num_bytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024 or suffix == "TiB":
            return f"{value:.2f}{suffix}" if suffix != "B" else f"{int(value)}B"
        value /= 1024
    raise AssertionError("unreachable")
