"""Shared pieces of the workloads: the model recipe, statistics, outcomes."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Steps run before timing starts; they include the pipeline's recording
#: iteration and planning, so the timed loop sees steady state only.
WARMUP_STEPS = 5

#: The one model recipe the three engine workloads share, so their losses
#: are comparable bit for bit (``seed`` is filled in per run).
MODEL = dict(layers=4, d_model=64, d_ffn=256, num_heads=4, seq_len=32,
             batch_size=8, vocab_size=64)

KIB = 1024
MIB = 1024 * 1024


@dataclass
class Context:
    """What ``bench/run.py`` hands a workload."""

    workload: str
    seed: int
    seconds: float
    #: ``time.perf_counter()`` taken first thing in the process.
    started: float
    #: Scratch directory inside the checkout; removed when the run ends.
    workdir: str
    #: ``bench.trace.Tracer`` on the traced pass, else ``None``.
    tracer: object = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None


@dataclass
class Outcome:
    """What a workload hands back."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: One line per failed correctness oracle; empty means correct.
    problems: list = field(default_factory=list)
    #: Cold set-up times measured in this process (``setup_s`` samples).
    setup_samples: list = field(default_factory=list)
    #: Counts that must repeat bit for bit for a seed on this workload.
    exact: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * fraction)) - 1])


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


#: Windows one process's timed loop is cut into (see ``best_window``).
WINDOWS = 2


def best_window(durations, count: int = WINDOWS) -> list[float]:
    """The contiguous ``1/count`` of ``durations`` with the lowest median.

    On a shared two-core machine interference comes in episodes of a few
    seconds and only ever slows work down, so the run-wide median mostly
    measures the neighbours. The benchmark's job is to tell two commits
    apart: it reports the median (and rate) of the quietest window, which
    an episode must cover the whole run to move.
    """
    size = max(1, len(durations) // count)
    windows = [durations[lo:lo + size]
               for lo in range(0, len(durations) - size + 1, size)]
    return min(windows, key=median)


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process and its waited-for children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


class Stopwatch:
    """Closed-loop time budget: ``while watch.running(done): ...``."""

    def __init__(self, seconds: float, minimum: int):
        self.deadline = time.perf_counter() + seconds
        self.minimum = minimum

    def running(self, done: int) -> bool:
        return done < self.minimum or time.perf_counter() < self.deadline
