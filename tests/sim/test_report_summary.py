"""``SimulationReport`` reads its statistics back out of its registry.

A fixed sequence of ``record_*`` calls (synthetic results with fixed
timings and carries) must give exactly the ``summary()``,
``text_summary()`` and ``art_ms(k)`` values below. They were captured
from the report that kept the same statistics in its own accumulators
beside the registry, so they pin that reading the registry changed no
reported number — except the three small-count quantiles
(``assign_latency_s_p50``/``_p99``, ``solver_ms_p99``), which the
quantile walk used to place past their landing bucket's upper edge.
"""

from types import SimpleNamespace as NS

import numpy as np

from repro.obs.metrics import Histogram
from repro.sim.metrics import SimulationReport


def _result(elapsed, candidates, timings, cost=None):
    return NS(
        elapsed=elapsed,
        num_candidates=candidates,
        quote_timings=timings,
        assigned=cost is not None,
        cost=float("inf") if cost is None else cost,
    )


def _batch(size, carried, solver_seconds, rejected):
    return NS(
        batch_size=size,
        carried=[object()] * carried,
        solver_seconds=solver_seconds,
        num_rejected=rejected,
    )


def _fed_report():
    report = SimulationReport()
    report.record_assignment(_result(0.004, 3, [(0, 0.001), (2, 0.003)], 120.0))
    report.record_assignment(
        _result(0.010, 5, [(2, 0.005), (3, 0.002), (0, 0.0015)])
    )
    report.record_assignment(_result(0.002, 1, [(1, 0.0008)], 80.5))
    report.record_batch(_batch(2, 1, 0.0005, 1))
    report.record_batch(_batch(1, 0, 0.0002, 0))
    report.record_batch(_batch(0, 0, 0.0, 0))  # empty: not recorded
    report.record_carry(4.0)
    report.record_carry(9.5)
    report.record_carry_settle(2)
    report.record_carry_settle(1)
    report.record_assign_latency(3.0)
    report.record_assign_latency(12.5)
    report.record_flush_wall(0.01)
    report.record_quote_stage(NS(quote_seconds=0.0007))
    report.record_quote_stage(NS(quote_seconds=0.0011))
    report.wall_seconds = 1.25
    return report


SUMMARY = {
    "requests": 3,
    "assigned": 2,
    "rejected": 1,
    "service_rate": 0.6667,
    "acrt_ms": 5.3333,
    "mean_candidates": 3.0,
    "mean_quotes": 2.0,
    "max_passengers": 0,
    "mean_max_occupancy": 0.0,
    "top20_mean_occupancy": 0.0,
    "batches": 2,
    "mean_batch_size": 2.0,
    "max_batch_size": 3,
    "solver_ms_mean": 0.35,
    "mean_batch_rejected": 0.5,
    "assign_latency_s_mean": 7.75,
    "assign_latency_s_p50": 8.116,
    "assign_latency_s_p99": 12.5,
    "solver_ms_p99": 0.4685,
    "carry_events": 2,
    "carried_per_flush_mean": 0.5,
    "carry_age_s_mean": 6.75,
    "max_carries": 2,
    "pipeline_flushes": 2,
    "quote_ms_mean": 0.9,
    "wall_seconds": 1.25,
}

TEXT = """\
--- simulation report ---
requests                 3
assigned                 2
rejected                 1
service_rate             0.6667
acrt_ms                  5.3333
max_passengers           0
wall_seconds             1.25
vehicles_per_request     candidates 3.0, trial-inserted 2.0
--- batched dispatch ---
batches                  2
batch_size               mean 2.00 max 3
solver_ms                mean 0.350 max 0.500
rejected_per_batch       mean 0.500
--- carry-over ---
assign_latency_s         mean 7.75
carried                  events 2 mean/flush 0.500 max_carries 2
carry_age_s              mean 6.75 max 9.50
--- quote stage ---
pipeline_flushes         2
quote_ms                 mean 0.900 max 1.100"""

EMPTY_TEXT = """\
--- simulation report ---
requests                 0
assigned                 0
rejected                 0
service_rate             0.0
acrt_ms                  0.0
max_passengers           0
wall_seconds             0.0
vehicles_per_request     candidates 0.0, trial-inserted 0.0"""


def test_summary_matches_the_captured_values_key_for_key():
    summary = _fed_report().summary()
    assert list(summary) == list(SUMMARY)
    assert summary == SUMMARY


def test_text_summary_matches_the_captured_block():
    assert _fed_report().text_summary() == TEXT


def test_art_and_acrt_read_the_registry():
    report = _fed_report()
    assert [report.art_ms(k) for k in range(5)] == [1.25, 0.8, 4.0, 2.0, None]
    assert report.acrt_ms == 5.333333333333333
    assert list(report.art_by_active()) == [0, 1, 2, 3]
    histograms = report.registry.as_dict()["histograms"]
    assert histograms["quote.art_s.active_2"]["count"] == 2
    assert histograms["quote.art_s"]["count"] == 6
    assert histograms["dispatch.acrt_s"]["count"] == report.num_requests


def test_counts_are_reads_of_the_instruments():
    report = _fed_report()
    counters = report.registry.as_dict()["counters"]
    assert (report.num_requests, report.num_assigned, report.num_rejected) == (
        counters["requests.settled"]["value"],
        counters["requests.assigned"]["value"],
        counters["requests.rejected"]["value"],
    ) == (3, 2, 1)
    assert report.num_batches == report.registry.histogram("flush.batch_size").count == 2
    assert report.carry_events == report.registry.histogram("carry.age_s").count == 2
    assert report.max_carries == 2
    assert report.total_assignment_cost == 200.5


def test_empty_report_reads_zeros():
    report = SimulationReport()
    summary = report.summary()
    assert list(summary) == list(SUMMARY)
    assert all(value == 0 for value in summary.values())
    assert report.text_summary() == EMPTY_TEXT
    assert report.art_ms(0) is None
    assert (report.num_batches, report.carry_events, report.max_carries) == (0, 0, 0)


def test_two_sample_tail_quantile_lands_in_numpys_bucket():
    """With latencies {3.0, 12.5} s the p99 is 12.405 s (numpy's linear
    estimate). The histogram must put it in the same log bucket, not at
    the edge of 3.0's bucket."""
    report = _fed_report()
    latency = report.registry.histogram("assign.latency_s")
    exact = float(np.percentile([3.0, 12.5], 99))
    estimate = latency.quantile(0.99)

    def bucket(value):
        hist = Histogram()
        hist.add(value)
        return hist.counts.index(1)

    assert bucket(estimate) == bucket(exact)
