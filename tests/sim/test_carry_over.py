"""Carry-over batching, end to end.

**Conservation** — with carry-over on, every request is settled exactly
once (assigned or rejected), never lost in the window and never
double-counted, including requests that expire mid-carry.

Carry-off is inert and carried runs replay under tracing and on either
engine: determinism contracts 7, 9 and 12, pinned in
``tests/test_contracts.py``.
"""

import pytest

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulation, simulate
from repro.sim.workload import ShanghaiLikeWorkload


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


def test_config_carry_over_requires_batched_dispatch():
    with pytest.raises(ValueError, match="carry_over requires"):
        SimulationConfig(carry_over=True)


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
    sim = Simulation(engine, config, trips)
    report = sim.run()
    assert sim.batch_window.num_flushes >= 1000  # empty flushes included
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
