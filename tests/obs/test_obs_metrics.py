"""The metrics registry: counters and log-bucket histograms.

The histogram's contract is quantiles-without-samples: p50/p90/p99
estimates whose relative error is bounded by the bucket width (< 19 %
at the default ``growth = 2**0.25``), exact at the observed extremes,
``None`` when empty.
"""

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


# ----------------------------------------------------------------------
# Counter
# ----------------------------------------------------------------------
def test_counter_increments():
    registry = MetricsRegistry()
    counter = registry.counter("flush.count")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert counter.as_dict() == {"value": 5}


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_empty_histogram_exports_nulls():
    hist = Histogram()
    assert hist.mean is None
    assert hist.quantile(0.5) is None
    exported = hist.as_dict()
    assert exported["count"] == 0
    for key in ("mean", "min", "max", "p50", "p90", "p99"):
        assert exported[key] is None


def test_single_sample_quantiles_are_exact():
    hist = Histogram()
    hist.add(0.0421)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert hist.quantile(q) == pytest.approx(0.0421)
    assert hist.min == hist.max == 0.0421


def test_quantile_error_is_bounded_by_bucket_width():
    """1000 evenly spread latencies: every estimated quantile must land
    within one bucket width (19 %) of the exact sample quantile."""
    hist = Histogram()
    values = [i / 1000.0 for i in range(1, 1001)]  # 1 ms .. 1 s
    for v in values:
        hist.add(v)
    for q in (0.10, 0.50, 0.90, 0.99):
        exact = values[round(q * (len(values) - 1))]
        estimate = hist.quantile(q)
        assert estimate == pytest.approx(exact, rel=0.19)
    assert hist.quantile(0.0) == pytest.approx(0.001)  # clamped to min
    assert hist.quantile(1.0) == pytest.approx(1.0)  # clamped to max
    assert hist.mean == pytest.approx(sum(values) / len(values))


def test_extremes_are_exact_in_the_export():
    """``min``/``max`` export the exact observed values (not bucket
    bounds), and quantile estimates never escape that range."""
    hist = Histogram()
    hist.add(0.00123)
    hist.add(3.21)
    assert hist.as_dict()["min"] == 0.00123
    assert hist.as_dict()["max"] == 3.21
    for q in (0.0, 0.5, 1.0):
        assert 0.00123 <= hist.quantile(q) <= 3.21
    # q=0 stays in the low sample's bucket (19 % wide), q=1 in the high's.
    assert hist.quantile(0.0) == pytest.approx(0.00123, rel=0.19)
    assert hist.quantile(1.0) == pytest.approx(3.21, rel=0.19)


def test_underflow_and_overflow_land_in_edge_buckets():
    hist = Histogram()
    hist.add(0.0)  # <= lo: bucket 0
    hist.add(1e-9)
    hist.add(1e9)  # beyond the top bucket: overflow
    assert hist.count == 3
    assert hist.quantile(0.0) <= hist.lo  # inside the underflow bucket
    # Overflow estimates sit at the bucket ceiling (~4.4e3 s for the
    # default scheme), bounded — not pinned — by the tracked maximum;
    # the *export* still carries the exact max.
    assert 4.0e3 <= hist.quantile(1.0) <= 1e9
    assert hist.as_dict()["max"] == 1e9


def test_quantile_rejects_out_of_range_q():
    hist = Histogram()
    hist.add(1.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)
    with pytest.raises(ValueError):
        hist.quantile(-0.1)


def test_histogram_validates_construction():
    with pytest.raises(ValueError):
        Histogram(lo=0.0)
    with pytest.raises(ValueError):
        Histogram(growth=1.0)
    with pytest.raises(ValueError):
        Histogram(num_buckets=0)


def test_unit_is_carried_into_the_export():
    registry = MetricsRegistry()
    registry.histogram("flush.batch_size", unit="requests").add(7)
    exported = registry.as_dict()
    assert exported["histograms"]["flush.batch_size"]["unit"] == "requests"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_instruments_are_get_or_create():
    registry = MetricsRegistry()
    assert registry.histogram("a") is registry.histogram("a")
    assert registry.counter("b") is registry.counter("b")
    # Same name, different kind: separate namespaces, no collision.
    assert registry.counter("a").value == 0


def test_as_dict_is_sorted_and_complete():
    registry = MetricsRegistry()
    registry.histogram("z.last").add(1.0)
    registry.histogram("a.first").add(2.0)
    registry.counter("hits").inc()
    exported = registry.as_dict()
    assert list(exported["histograms"]) == ["a.first", "z.last"]
    assert exported["counters"] == {"hits": {"value": 1}}
    assert list(exported) == ["counters", "histograms"]
