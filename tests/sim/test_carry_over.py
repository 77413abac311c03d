"""Carry-over batching and the adaptive window, end to end.

Two guarantee families:

* **conservation** — with carry-over on, every request is settled
  exactly once (assigned or rejected), never lost in the window and
  never double-counted, including requests that expire mid-carry;
* **clamping** — the window trajectory stays inside the band under
  burst load and silence.

Adaptive-off ≡ fixed window, carry-off is inert, and adaptive + carry
runs are seed-deterministic are determinism contracts 6–8, pinned in
``tests/test_contracts.py``.
"""

import pytest

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.workload import (
    ShanghaiLikeWorkload,
    bimodal_trips,
    burst_workload,
    phase_metrics,
)


@pytest.fixture(scope="module")
def scenario():
    city = grid_city(14, 14, seed=11)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=11, min_trip_meters=600.0).generate(
        num_trips=80, duration_seconds=1200
    )
    return city, engine, trips


def _run(scenario, **overrides):
    _, engine, trips = scenario
    params = dict(
        num_vehicles=8,
        algorithm="kinetic",
        seed=3,
        dispatch_policy="lap",
        batch_window_s=15.0,
    )
    params.update(overrides)
    return simulate(engine, SimulationConfig(**params), trips)


def _expected_requests(scenario):
    """Requests immediate dispatch would stamp (degenerate specs drop)."""
    _, engine, trips = scenario
    config = SimulationConfig(num_vehicles=8, algorithm="kinetic", seed=3)
    return simulate(engine, config, trips).num_requests


# ----------------------------------------------------------------------
# Conservation and expiry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["greedy", "lap", "iterative"])
def test_every_request_settles_exactly_once_with_carry(scenario, policy):
    expected = _expected_requests(scenario)
    report = _run(scenario, dispatch_policy=policy, carry_over=True)
    assert report.num_requests == expected
    assert report.num_assigned + report.num_rejected == expected
    assert len(report.service_log) == report.num_assigned
    assert report.verify_service_guarantees() == []


def test_long_lap_carry_run_loses_no_request():
    """Over 1,000 two-second flushes of LAP with carry-over, every
    request settles exactly once and every guarantee holds."""
    city = grid_city(12, 12, seed=5)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=5, min_trip_meters=600.0).generate(
        num_trips=300, duration_seconds=2400
    )
    config = SimulationConfig(
        num_vehicles=6,
        algorithm="kinetic",
        seed=5,
        dispatch_policy="lap",
        batch_window_s=2.0,
        carry_over=True,
    )
    report = simulate(engine, config, trips)
    assert len(report.window_trajectory) >= 1000  # one entry per flush
    assert report.carry_events > 0
    assert report.num_assigned + report.num_rejected == report.num_requests
    assert report.num_requests == len(trips)
    assert report.verify_service_guarantees() == []


@pytest.fixture(scope="module")
def overload():
    """A demand stream a 6-vehicle fleet cannot absorb: most requests
    lose several flushes in a row, so carry-over gets real work."""
    city = grid_city(20, 20, seed=11)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=11, min_trip_meters=1500.0).generate(
        num_trips=220, duration_seconds=1800
    )
    return engine, trips


def _run_overload(overload, wait_minutes=6.0, **overrides):
    from repro.core.constraints import ConstraintConfig

    engine, trips = overload
    params = dict(
        num_vehicles=6,
        algorithm="kinetic",
        seed=3,
        dispatch_policy="lap",
        batch_window_s=15.0,
        constraints=ConstraintConfig.from_minutes(wait_minutes, 20.0),
    )
    params.update(overrides)
    return simulate(engine, SimulationConfig(**params), trips)


def test_request_expiring_mid_carry_takes_the_rejection_path(overload):
    """Overflow requests must ride the window for a bounded number of
    flushes and then be *rejected* (not lost, not retried forever) once
    their wait budget cannot reach the next commit."""
    wait_budget = 4.0 * 60.0
    report = _run_overload(overload, wait_minutes=4.0, carry_over=True)
    assert report.num_rejected > 0  # the overflow expired...
    assert report.carry_events > 0  # ...after genuinely riding along
    assert report.max_carries >= 2
    # A request never rides past its wait budget: carry ages are bounded
    # by it, and every settle is final (assigned + rejected = total).
    assert report.registry.histogram("carry.age_s").max <= wait_budget + 1e-9
    assert report.num_assigned + report.num_rejected == report.num_requests
    assert report.verify_service_guarantees() == []


def test_carry_rescues_requests_the_in_batch_path_rejects(overload):
    """The service-rate payoff: a request that had a feasible quote but
    lost its flush's assignment can win a later flush — the global solve
    there sees new arrivals and moved vehicles. In-batch settling sends
    the loser to the greedy cleanup, where the vehicles that just won
    often cannot take it; carry-over keeps it alive while its wait
    budget lasts and assigns strictly more of the stream. (A request
    with no feasible quote is rejected either way.)"""
    without = _run_overload(overload)
    with_carry = _run_overload(overload, carry_over=True)
    assert with_carry.num_assigned > without.num_assigned
    assert with_carry.verify_service_guarantees() == []


# ----------------------------------------------------------------------
# Adaptive trajectory: clamping
# ----------------------------------------------------------------------
def _bursty_trips(city):
    """Silence, then an airport burst, then silence again."""
    trips = list(
        burst_workload(
            city, center_vertex=90, num_trips=25, request_time=600.0, seed=8
        )
    )
    # Sparse background before and after the burst.
    sparse = ShanghaiLikeWorkload(city, seed=8, min_trip_meters=600.0).generate(
        num_trips=10, duration_seconds=1800
    )
    trips.extend(sparse)
    trips.sort(key=lambda t: t.request_time)
    return trips


def test_window_is_clamped_under_burst_and_silence(scenario):
    city, engine, _ = scenario
    trips = _bursty_trips(city)
    config = SimulationConfig(
        num_vehicles=8,
        algorithm="kinetic",
        seed=8,
        dispatch_policy="lap",
        batch_window_s=6.0,
        adaptive_window=True,
        window_min_s=3.0,
        window_max_s=24.0,
        adaptive_target_batch=6.0,
        carry_over=True,
    )
    report = simulate(engine, config, trips)
    windows = [w for _, w in report.window_trajectory]
    assert windows, "no flush ever recorded a window"
    assert min(windows) >= 3.0 - 1e-12
    assert max(windows) <= 24.0 + 1e-12
    # The burst/silence contrast actually drives the controller to both
    # ends of the band.
    assert min(windows) == pytest.approx(3.0)
    assert max(windows) == pytest.approx(24.0)
    assert report.verify_service_guarantees() == []


# ----------------------------------------------------------------------
# The payoff: adaptive + carry-over against every fixed window
# ----------------------------------------------------------------------
def test_adaptive_beats_the_best_fixed_window_on_the_bimodal_workload():
    """On an off-peak lull followed by a rush-hour surge (fleet sized
    for the lull), no fixed window wins both phases. The adaptive band
    with carry-over answers off-peak requests faster than the fixed
    window that serves the surge best, and serves at least as much of
    the surge. All quantities are simulated seconds, not wall-clock."""
    from repro.core.constraints import ConstraintConfig

    window_min_s, window_max_s = 2.0, 30.0
    city = grid_city(28, 28, seed=13)
    engine = MatrixEngine(city)
    trips, split = bimodal_trips(
        city,
        seed=13,
        offpeak_s=1400.0,
        peak_s=700.0,
        offpeak_trips=40,
        peak_trips=180,
        min_trip_meters=1500.0,
    )

    def run(**overrides):
        config = SimulationConfig(
            num_vehicles=10,
            algorithm="kinetic",
            constraints=ConstraintConfig.from_minutes(6.0, 20.0),
            dispatch_policy="lap",
            seed=13,
            **overrides,
        )
        report = simulate(engine, config, trips)
        assert report.verify_service_guarantees() == []
        return report

    fixed = [
        phase_metrics(run(batch_window_s=window), trips, split)
        for window in (5.0, 15.0, 30.0)
    ]
    # Best peak service rate; the windows are ascending, so max() breaks
    # ties toward the shorter (lower-latency) one.
    best_fixed = max(fixed, key=lambda cell: cell["peak_service_rate"])
    report = run(
        batch_window_s=window_min_s,
        adaptive_window=True,
        window_min_s=window_min_s,
        window_max_s=window_max_s,
        adaptive_target_batch=6.0,
        carry_over=True,
    )
    adaptive = phase_metrics(report, trips, split)

    assert adaptive["offpeak_latency_s"] < best_fixed["offpeak_latency_s"]
    assert adaptive["peak_service_rate"] >= best_fixed["peak_service_rate"]
    # The trajectory stays inside the band and visits both regimes: the
    # floor during the lull, the ceiling during the surge.
    windows = [w for _, w in report.window_trajectory]
    assert min(windows) >= window_min_s - 1e-9
    assert max(windows) <= window_max_s + 1e-9
    assert min(windows) <= window_min_s + 1.0
    assert max(windows) >= window_max_s - 1.0
    assert report.carry_events > 0
