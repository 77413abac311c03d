"""Metric collectors."""

import pytest

from repro.core.request import TripRequest
from repro.sim.metrics import OccupancyTracker, SimulationReport


def test_occupancy_tracker():
    occ = OccupancyTracker()
    for load in (1, 3, 2):
        occ.observe(1, load)
    occ.observe(2, 5)
    for vid in range(3, 12):
        occ.observe(vid, 1)
    assert occ.max_passengers == 5
    assert occ.mean_max_per_vehicle == pytest.approx((3 + 5 + 9) / 11)
    # Top 20% of 11 vehicles = top 2: loads 5 and 3.
    assert occ.top20_mean == pytest.approx(4.0)
    assert occ.mean_load_at_stops > 0


def test_occupancy_empty():
    occ = OccupancyTracker()
    assert occ.max_passengers == 0
    assert occ.mean_max_per_vehicle == 0.0
    assert occ.top20_mean == 0.0
    assert occ.mean_load_at_stops == 0.0


class _FakeResult:
    def __init__(self, assigned, elapsed=0.01, cost=100.0):
        self.elapsed = elapsed
        self.num_candidates = 3
        self.quote_timings = [(0, 0.001), (2, 0.004)]
        self.assigned = assigned
        self.cost = cost if assigned else float("inf")


def test_report_record_assignment():
    report = SimulationReport()
    report.record_assignment(_FakeResult(True))
    report.record_assignment(_FakeResult(False))
    assert report.num_requests == 2
    assert report.num_assigned == 1
    assert report.num_rejected == 1
    assert report.service_rate == 0.5
    assert report.acrt_ms == pytest.approx(10.0)
    assert report.art_ms(0) == pytest.approx(1.0)
    assert report.art_ms(9) is None
    summary = report.summary()
    assert summary["requests"] == 2
    assert summary["service_rate"] == 0.5
    # ART's sample base: 2 quotes made of 3 candidates per request.
    assert (summary["mean_candidates"], summary["mean_quotes"]) == (3.0, 2.0)
    assert "candidates 3.0, trial-inserted 2.0" in report.text_summary()


def test_report_empty_summary():
    report = SimulationReport()
    assert report.service_rate == 0.0
    assert report.summary()["acrt_ms"] == 0.0


def test_verify_service_guarantees():
    report = SimulationReport()
    request = TripRequest(1, 0, 5, 100.0, 60.0, 0.2, 100.0)
    report.service_log[1] = {
        "request": request,
        "pickup": 150.0,
        "dropoff": 260.0,
    }
    assert report.verify_service_guarantees() == []
    # Late pickup.
    report.service_log[1]["pickup"] = 161.0
    violations = report.verify_service_guarantees()
    assert len(violations) == 1 and "deadline" in violations[0]
    # Ride budget blown: budget = 120 s.
    report.service_log[1] = {
        "request": request,
        "pickup": 150.0,
        "dropoff": 150.0 + 121.0,
    }
    violations = report.verify_service_guarantees()
    assert len(violations) == 1 and "ride" in violations[0]


def test_verify_ignores_inflight():
    report = SimulationReport()
    request = TripRequest(1, 0, 5, 100.0, 60.0, 0.2, 100.0)
    report.service_log[1] = {"request": request, "pickup": 150.0}
    assert report.verify_service_guarantees() == []
