"""Property tests of the streaming histogram's quantile estimates.

The log-bucket scheme (growth 2**0.25) guarantees a documented error
bound: the quantile walk places each bucket's samples evenly inside it
and interpolates between the placed samples either side of the rank,
so the estimate lies between a point in the bucket of the exact order
statistic ``sorted[floor(q * (n - 1))]`` and a point in the bucket of
``sorted[ceil(q * (n - 1))]``. It therefore always lies within
**< 19 % relative error** (the bucket growth factor is
2**0.25 - 1 ≈ 18.92 %) of the *bracketing pair* of exact order
statistics — ``numpy.percentile(..., method="lower")`` and
``method="higher")`` — with an absolute floor of ``lo`` (1 µs) near
the underflow bucket, whose width is absolute, not relative. It is
also monotone in ``q`` and never leaves the observed ``[min, max]``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry

GROWTH = 2 ** 0.25
LO = 1e-6

samples_strategy = st.lists(
    st.floats(min_value=1e-9, max_value=5e3, allow_nan=False),
    min_size=1,
    max_size=200,
)
quantile_strategy = st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.99, 1.0])


def make_histogram(samples):
    hist = MetricsRegistry().histogram("h_s")
    for sample in samples:
        hist.add(sample)
    return hist


def assert_within_bound(estimate, samples, q):
    """The documented bound vs the bracketing exact order statistics."""
    lo_stat = float(np.percentile(samples, q * 100.0, method="lower"))
    hi_stat = float(np.percentile(samples, q * 100.0, method="higher"))
    if estimate < lo_stat:
        reference, error = lo_stat, lo_stat - estimate
    elif estimate > hi_stat:
        reference, error = hi_stat, estimate - hi_stat
    else:
        return  # inside the bracketing interval: exact
    assert error <= max(0.19 * reference, LO), (
        f"q={q}: estimate {estimate} vs [{lo_stat}, {hi_stat}]"
    )


@settings(max_examples=200, deadline=None)
@given(samples=samples_strategy, q=quantile_strategy)
def test_quantile_within_bucket_width_of_numpy(samples, q):
    hist = make_histogram(samples)
    assert_within_bound(hist.quantile(q), samples, q)


@settings(max_examples=200, deadline=None)
@given(samples=samples_strategy)
def test_quantile_is_monotone_and_inside_the_observed_range(samples):
    hist = make_histogram(samples)
    qs = [i / 100.0 for i in range(101)]
    estimates = [hist.quantile(q) for q in qs]
    assert estimates == sorted(estimates)
    assert min(samples) <= estimates[0] and estimates[-1] <= max(samples)
    # One walk answering every quantile agrees with the single queries.
    assert hist._quantiles(qs) == estimates


def test_two_samples_far_apart_interpolate_between_their_buckets():
    """The rank past a bucket's last sample heads for the next occupied
    bucket instead of running off the landing bucket's upper edge."""
    samples = [3.0, 12.5]
    hist = make_histogram(samples)
    for q in (0.25, 0.5, 0.75, 0.99):
        estimate = hist.quantile(q)
        assert_within_bound(estimate, samples, q)
        linear = float(np.percentile(samples, q * 100.0))
        assert abs(estimate - linear) <= (GROWTH - 1) * linear, (q, estimate)


def test_adjacent_crowded_bucket_keeps_the_walk_monotone():
    """One sample, then many in the next bucket up: the estimate just
    before the crowded bucket must not overshoot its first sample."""
    hist = make_histogram([1.0] + [1.0 * GROWTH * 1.01] * 50)
    estimates = [hist.quantile(i / 1000.0) for i in range(1001)]
    assert estimates == sorted(estimates)


def test_underflow_and_overflow_edges():
    hist = make_histogram([0.0, 1e-9, 1e-8])  # all in the underflow bucket
    assert abs(hist.quantile(0.5) - 1e-9) <= LO
    assert hist.quantile(0.0) >= 0.0
    assert hist.quantile(1.0) <= LO

    big = make_histogram([1e9, 2e9])  # both beyond the bucketed range
    # The overflow bucket is unbounded above; estimates clamp to the
    # exact tracked extremes, so every quantile stays in [min, max].
    for q in (0.0, 0.5, 1.0):
        assert 1e9 <= big.quantile(q) <= 2e9
    assert big.counts[-1] == 2  # overflow bucket holds both
    assert big.min == 1e9 and big.max == 2e9


def test_empty_histogram_quantile_is_none():
    hist = MetricsRegistry().histogram("h_s")
    assert hist.quantile(0.5) is None
    assert hist.as_dict()["p50"] is None
