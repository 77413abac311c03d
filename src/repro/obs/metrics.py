"""Counters, gauges and streaming log-bucket histograms.

The :class:`MetricsRegistry` is the simulation's one home for
aggregate telemetry: instead of growing another one-off
``RunningStats`` field per metric on ``SimulationReport``, a component
asks the registry for a named instrument and records into it. The
registry serializes to the machine-readable ``metrics.json`` document
(:func:`repro.obs.export.write_metrics_json`).

Histogram bucket scheme
-----------------------

:class:`Histogram` answers p50/p90/p99 *without storing samples*:
values land in fixed log-spaced buckets whose upper bounds are

    ``lo * growth**(i + 1)``   for i = 0 .. n-1

with defaults ``lo = 1e-6`` (1 µs), ``growth = 2**0.25`` (four buckets
per octave, ~19 % relative width) and enough buckets to reach
``~4.4e3`` s — 132 integer counters covering nine decades of latency.
Values at or below ``lo`` land in bucket 0; values beyond the top
bucket land in the overflow bucket and are clamped by the tracked
maximum. A quantile is estimated by walking the cumulative counts to
the target rank and interpolating linearly inside the bucket, then
clamping to the exact observed ``[min, max]`` — so the estimate's
relative error against the bracketing exact order statistics is
bounded by the bucket width (< 19 % by default, exact for the
extremes; property-pinned in
``tests/properties/test_histogram_quantile.py``).

All instruments are thread-safe: one registry lock covers creation,
and each instrument's mutators take the registry lock too (recording
is a few arithmetic ops; contention is negligible next to the work
being measured).
"""

from __future__ import annotations

import math
import threading


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def as_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A last-write-wins float (``None`` until first set)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value: float | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def as_dict(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Streaming histogram over fixed log-spaced buckets.

    See the module docstring for the bucket scheme. ``unit`` is
    annotation only (it names the sample unit in exports).
    """

    __slots__ = (
        "_lock",
        "unit",
        "lo",
        "growth",
        "_log_growth",
        "counts",
        "count",
        "total",
        "min",
        "max",
    )

    #: Default scheme: 1 µs floor, four buckets per octave, 132 buckets
    #: (reaches ~4.4e3 seconds before overflow).
    DEFAULT_LO = 1e-6
    DEFAULT_GROWTH = 2.0 ** 0.25
    DEFAULT_BUCKETS = 132

    def __init__(
        self,
        lock: threading.Lock | None = None,
        unit: str = "s",
        lo: float = DEFAULT_LO,
        growth: float = DEFAULT_GROWTH,
        num_buckets: int = DEFAULT_BUCKETS,
    ):
        if lo <= 0 or growth <= 1 or num_buckets < 1:
            raise ValueError("need lo > 0, growth > 1, num_buckets >= 1")
        self._lock = lock if lock is not None else threading.Lock()
        self.unit = unit
        self.lo = lo
        self.growth = growth
        self._log_growth = math.log(growth)
        # counts[0] <= lo; counts[1..n] log buckets; counts[n+1] overflow.
        self.counts = [0] * (num_buckets + 2)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording -----------------------------------------------------
    def _bucket(self, value: float) -> int:
        if value <= self.lo:
            return 0
        idx = int(math.ceil(math.log(value / self.lo) / self._log_growth))
        return min(idx, len(self.counts) - 1)

    def add(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.counts[self._bucket(value)] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    # -- queries -------------------------------------------------------
    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def _quantiles(self, qs) -> list:
        """One cumulative walk answering the ascending quantiles ``qs``.

        Walks the cumulative counts to rank ``q * (count - 1)`` and
        interpolates within the landing bucket, clamped to the exact
        observed extremes. Call with the lock held.
        """
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError("q must be in [0, 1]")
        if not self.count:
            return [None] * len(qs)
        ranks = [q * (self.count - 1) for q in qs]
        results: list = []
        seen = 0
        for idx, n in enumerate(self.counts):
            if not n:
                continue
            while len(results) < len(ranks) and ranks[len(results)] < seen + n:
                if idx == 0:
                    low, high = 0.0, self.lo
                else:
                    high = self.lo * self.growth ** idx
                    low = high / self.growth
                frac = (ranks[len(results)] - seen + 0.5) / n
                value = low + (high - low) * frac
                results.append(min(max(value, self.min), self.max))
            if len(results) == len(ranks):
                return results
            seen += n
        while len(results) < len(ranks):  # pragma: no cover - defensive
            results.append(self.max)
        return results

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (``0 <= q <= 1``); ``None`` if empty."""
        with self._lock:
            return self._quantiles((q,))[0]

    def as_dict(self) -> dict:
        """Summary for ``metrics.json``: moments plus p50/p90/p99."""
        with self._lock:
            p50, p90, p99 = self._quantiles((0.50, 0.90, 0.99))
        return {
            "unit": self.unit,
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }


class MetricsRegistry:
    """Named instruments, created on first use, export-ready.

    One registry per simulation run. Creation and recording are
    thread-safe; names are flat strings by convention dotted by
    subsystem (``flush.solve_s``, ``engine.distance_many_s``).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(self._lock)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(self._lock)
            return instrument

    def histogram(self, name: str, unit: str = "s", **kwargs) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    self._lock, unit=unit, **kwargs
                )
            return instrument

    def as_dict(self) -> dict:
        """The full registry, serialization-shaped (sorted names)."""
        with self._lock:  # snapshot only; serialize outside the lock
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: v.as_dict() for k, v in sorted(counters.items())},
            "gauges": {k: v.as_dict() for k, v in sorted(gauges.items())},
            "histograms": {
                k: v.as_dict() for k, v in sorted(histograms.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )
