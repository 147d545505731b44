"""A labelled metrics registry: counters, gauges and histograms.

One registry per run absorbs every subsystem's accounting — page traffic
per (src-tier, dst-tier) edge, eviction counts, GPU-cache hit rate,
collective bytes, updater-sweep latencies, fault and retry counts — and
dumps them as one machine-readable dict. Instruments are get-or-create
and returned by identity, so hot paths fetch a counter once and call
``inc()`` thereafter.
"""

from __future__ import annotations

import threading

from repro.errors import ConfigurationError


def _key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def nearest_rank(samples, q: float) -> float:
    """Nearest-rank percentile of ``samples``, ``q`` in [0, 100].

    The one shared definition of a percentile in this codebase —
    :class:`Histogram`, the trace collector's fleet rollup and
    ``fleet/bench.py`` all call this instead of hand-rolling index math,
    so their p99s agree by construction. Returns 0.0 on no samples.
    """
    if not 0 <= q <= 100:
        raise ConfigurationError("percentile must be in [0, 100]")
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


class Counter:
    """Monotonically increasing count (events, bytes)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self):
        return self._value

    def inc(self, amount=1):
        if amount < 0:
            raise ConfigurationError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount
            return self._value


class Gauge:
    """A value that goes up and down (pages in use, cache bytes)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self):
        return self._value

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def add(self, amount) -> None:
        with self._lock:
            self._value += amount


class Histogram:
    """Distribution of observations (latencies, sizes).

    Observations are kept exactly — runs here are thousands of samples,
    not millions — so any percentile is available at dump time.
    """

    __slots__ = ("name", "labels", "_samples", "_lock")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self._samples: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._samples.append(float(value))

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._samples)

    @property
    def sum(self) -> float:
        with self._lock:
            return sum(self._samples)

    @property
    def samples(self) -> list[float]:
        """A copy of the raw observations (export / merge input)."""
        with self._lock:
            return list(self._samples)

    def merge(self, samples) -> None:
        """Absorb raw observations from another histogram's ``samples``.

        The trace collector's fleet rollup folds every per-process
        histogram into one this way, so cross-rank percentiles are
        computed over the union of observations, not averaged summaries.
        """
        incoming = [float(s) for s in samples]
        with self._lock:
            self._samples.extend(incoming)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the observations, ``q`` in [0, 100]."""
        return nearest_rank(self.samples, q)

    def summary(self) -> dict:
        with self._lock:
            samples = list(self._samples)
        if not samples:
            return {"count": 0, "sum": 0.0, "mean": 0.0,
                    "min": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
        return {
            "count": len(samples),
            "sum": sum(samples),
            "mean": sum(samples) / len(samples),
            "min": min(samples),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": max(samples),
        }


class _NullInstrument:
    """Absorbs every recording call; returned by a disabled telemetry."""

    __slots__ = ()
    name = "null"
    labels: dict = {}
    value = 0
    count = 0
    sum = 0.0
    samples: list = []

    def inc(self, amount=1):
        return 0

    def set(self, value) -> None:
        return None

    def add(self, amount) -> None:
        return None

    def observe(self, value) -> None:
        return None

    def merge(self, samples) -> None:
        return None

    def percentile(self, q):
        return 0.0

    def summary(self) -> dict:
        # Matches the empty-Histogram summary exactly, so report code
        # never branches on which keys exist.
        return {"count": 0, "sum": 0.0, "mean": 0.0,
                "min": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create store of labelled instruments."""

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: dict):
        key = _key(name, labels)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._instruments[key] = cls(name, labels)
        if not isinstance(instrument, cls):
            raise ConfigurationError(
                f"metric {key!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def instruments(self) -> dict[str, object]:
        with self._lock:
            return dict(self._instruments)

    def value(self, name: str, **labels):
        """Current value of a counter/gauge (0 if never recorded)."""
        instrument = self.instruments().get(_key(name, labels))
        if instrument is None:
            return 0
        return instrument.value

    def dump(self) -> dict:
        """One machine-readable snapshot of every instrument."""
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        for key, instrument in sorted(self.instruments().items()):
            if isinstance(instrument, Counter):
                out["counters"][key] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][key] = instrument.value
            elif isinstance(instrument, Histogram):
                out["histograms"][key] = instrument.summary()
        return out
