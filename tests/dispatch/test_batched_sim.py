"""End-to-end simulation under batched dispatch.

The batch layer must preserve the paper's service guarantee for every
policy — windowed waiting eats into each request's ``w`` budget, never
past it — and the new batch metrics must describe the flush stream.
"""

import pytest

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.workload import ShanghaiLikeWorkload

POLICIES = ["greedy", "lap", "iterative"]


@pytest.fixture(scope="module")
def batch_city():
    return grid_city(15, 15, seed=4)


@pytest.fixture(scope="module")
def batch_engine(batch_city):
    return MatrixEngine(batch_city)


@pytest.fixture(scope="module")
def batch_trips(batch_city):
    return ShanghaiLikeWorkload(batch_city, seed=4, min_trip_meters=600.0).generate(
        num_trips=80, duration_seconds=1200
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("algorithm", ["kinetic", "insertion"])
def test_guarantees_hold_under_batching(batch_engine, batch_trips, policy, algorithm):
    config = SimulationConfig(
        num_vehicles=12,
        algorithm=algorithm,
        seed=1,
        dispatch_policy=policy,
        batch_window_s=20.0,
    )
    report = simulate(batch_engine, config, batch_trips)
    assert report.num_requests == len(batch_trips)
    assert report.verify_service_guarantees() == []
    # Every assigned request is fully serviced once the queue runs dry.
    for rid, entry in report.service_log.items():
        assert "pickup" in entry, f"request {rid} assigned but never picked up"
        assert "dropoff" in entry, f"request {rid} never dropped off"


@pytest.mark.parametrize("policy", POLICIES)
def test_batched_deterministic_given_seed(batch_engine, batch_trips, policy):
    config = SimulationConfig(
        num_vehicles=10,
        algorithm="kinetic",
        seed=9,
        dispatch_policy=policy,
        batch_window_s=30.0,
    )
    a = simulate(batch_engine, config, batch_trips)
    b = simulate(batch_engine, config, batch_trips)
    assert a.num_assigned == b.num_assigned
    assert a.total_assignment_cost == pytest.approx(b.total_assignment_cost)
    for rid in a.service_log:
        assert a.service_log[rid].get("vehicle") == b.service_log[rid].get("vehicle")


def test_windows_actually_batch(batch_engine, batch_trips):
    report = simulate(
        batch_engine,
        SimulationConfig(
            num_vehicles=12,
            algorithm="kinetic",
            seed=1,
            dispatch_policy="lap",
            batch_window_s=30.0,
        ),
        batch_trips,
    )
    assert report.num_batches < report.num_requests
    sizes = report.registry.histogram("flush.batch_size")
    assert sizes.mean > 1.0
    assert sizes.max >= 2
    assert report.registry.histogram("flush.solve_s").count == report.num_batches
    summary = report.summary()
    assert summary["batches"] == report.num_batches
    assert summary["mean_batch_size"] > 1.0
    text = report.text_summary()
    assert "batched dispatch" in text and "solver_ms" in text


def test_batching_delay_respects_wait_budget(batch_engine, batch_trips):
    """Pickup deadlines are anchored at request time, not flush time: no
    assigned rider is picked up later than request_time + w even though
    dispatch happened up to a window later."""
    report = simulate(
        batch_engine,
        SimulationConfig(
            num_vehicles=12,
            algorithm="kinetic",
            seed=1,
            dispatch_policy="iterative",
            batch_window_s=45.0,
        ),
        batch_trips,
    )
    for entry in report.service_log.values():
        request, picked = entry.get("request"), entry.get("pickup")
        if request is not None and picked is not None:
            assert picked <= request.pickup_deadline + 1e-6


def test_empty_stream_with_window(batch_engine):
    report = simulate(
        batch_engine,
        SimulationConfig(num_vehicles=3, seed=0, batch_window_s=30.0),
        [],
    )
    assert report.num_requests == 0 and report.num_batches == 0


def test_config_validation():
    with pytest.raises(ValueError, match="dispatch_policy"):
        SimulationConfig(dispatch_policy="nope")
    with pytest.raises(ValueError, match="batch_window_s"):
        SimulationConfig(batch_window_s=-1.0)
    with pytest.raises(ValueError, match="assignment_rounds"):
        SimulationConfig(assignment_rounds=0)
    # A window at least as long as the wait budget starves every request.
    with pytest.raises(ValueError, match="waiting-time guarantee"):
        SimulationConfig(batch_window_s=600.0)
    assert SimulationConfig(batch_window_s=599.0).batch_window_s == 599.0
