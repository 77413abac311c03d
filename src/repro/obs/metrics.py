"""Counters and streaming log-bucket histograms.

The :class:`MetricsRegistry` is the simulation's one home for
aggregate telemetry: ``SimulationReport`` binds its instruments once
and reads every statistic it reports back out of them, and any other
component asks the registry for a named instrument and records into
it. The registry serializes to the machine-readable ``metrics.json``
document (:func:`repro.obs.export.write_metrics_json`).

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
maximum. A quantile is estimated from the cumulative counts: the
``n`` samples of a bucket are placed evenly inside it (sample ``k`` at
fraction ``(k + 0.5) / n`` of its width), and a rank that falls
between two placed samples — inside one bucket, or past a bucket's last
sample and before the next occupied bucket's first — is interpolated
linearly between them. The result is clamped to the exact observed
``[min, max]``. The estimate is therefore monotone in the quantile and
lies within one bucket width (< 19 % relative by default, ``lo``
absolute in the underflow bucket) of the bracketing exact order
statistics (property-pinned in
``tests/properties/test_histogram_quantile.py``).

The simulator is one thread, so instruments take no locks: recording
a histogram sample is a handful of arithmetic ops.
"""

from __future__ import annotations

from math import ceil, inf, log


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def as_dict(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Streaming histogram over fixed log-spaced buckets.

    See the module docstring for the bucket scheme. ``unit`` is
    annotation only (it names the sample unit in exports).
    """

    __slots__ = (
        "unit",
        "lo",
        "growth",
        "_log_growth",
        "_top",
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
        unit: str = "s",
        lo: float = DEFAULT_LO,
        growth: float = DEFAULT_GROWTH,
        num_buckets: int = DEFAULT_BUCKETS,
    ):
        if lo <= 0 or growth <= 1 or num_buckets < 1:
            raise ValueError("need lo > 0, growth > 1, num_buckets >= 1")
        self.unit = unit
        self.lo = lo
        self.growth = growth
        self._log_growth = log(growth)
        # counts[0] <= lo; counts[1..n] log buckets; counts[n+1] overflow.
        self.counts = [0] * (num_buckets + 2)
        self._top = num_buckets + 1
        self.count = 0
        self.total = 0.0
        self.min = inf
        self.max = -inf

    # -- recording -----------------------------------------------------
    def add(self, value: float) -> None:
        value = float(value)
        if value <= self.lo:
            idx = 0
        else:
            idx = ceil(log(value / self.lo) / self._log_growth)
            if idx > self._top:
                idx = self._top
        self.counts[idx] += 1
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

    def _bucket_bounds(self, idx: int) -> tuple[float, float]:
        """``(low, high)`` of bucket ``idx``; bucket 0 is ``[0, lo]``."""
        if idx == 0:
            return 0.0, self.lo
        high = self.lo * self.growth ** idx
        return high / self.growth, high

    def _placed(self, idx: int, n: int, k: int) -> float:
        """Where sample ``k`` of the ``n`` in bucket ``idx`` is placed."""
        low, high = self._bucket_bounds(idx)
        return low + (high - low) * (k + 0.5) / n

    def _quantiles(self, qs) -> list:
        """One cumulative walk answering the ascending quantiles ``qs``.

        Rank ``q * (count - 1)`` is interpolated between the placed
        samples either side of it (see the module docstring), then
        clamped to the exact observed extremes.
        """
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError("q must be in [0, 1]")
        if not self.count:
            return [None] * len(qs)
        ranks = [q * (self.count - 1) for q in qs]
        occupied = [(idx, n) for idx, n in enumerate(self.counts) if n]
        results: list = []
        seen = 0
        for pos, (idx, n) in enumerate(occupied):
            while len(results) < len(ranks) and ranks[len(results)] < seen + n:
                local = ranks[len(results)] - seen
                if local <= n - 1:
                    value = self._placed(idx, n, local)
                else:
                    # Past this bucket's last sample, so not in the last
                    # occupied bucket (the top rank is count - 1): head
                    # for the next occupied bucket's first sample.
                    last = self._placed(idx, n, n - 1)
                    first = self._placed(*occupied[pos + 1], 0)
                    value = min(last + (first - last) * (local - (n - 1)), first)
                results.append(min(max(value, self.min), self.max))
            if len(results) == len(ranks):
                return results
            seen += n
        while len(results) < len(ranks):  # pragma: no cover - defensive
            results.append(self.max)
        return results

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (``0 <= q <= 1``); ``None`` if empty."""
        return self._quantiles((q,))[0]

    def as_dict(self) -> dict:
        """Summary for ``metrics.json``: moments plus p50/p90/p99."""
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

    One registry per simulation run; names are flat strings by
    convention dotted by subsystem (``flush.solve_s``,
    ``quote.art_s.active_3``).
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def histogram(self, name: str, unit: str = "s", **kwargs) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(unit=unit, **kwargs)
        return instrument

    def as_dict(self) -> dict:
        """The full registry, serialization-shaped (sorted names)."""
        return {
            "counters": {
                k: v.as_dict() for k, v in sorted(self._counters.items())
            },
            "histograms": {
                k: v.as_dict() for k, v in sorted(self._histograms.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"histograms={len(self._histograms)})"
        )
