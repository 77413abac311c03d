"""Failure injection: degenerate inputs the system must survive."""

import pytest

from repro.core.matching import Dispatcher, KineticAgent
from repro.core.vehicle import Vehicle
from repro.dispatch import costs, quoting
from repro.exceptions import TreeBudgetExceeded
from repro.roadnet.engine import DijkstraEngine
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulation, simulate
from repro.sim.workload import ShanghaiLikeWorkload, TripSpec, burst_workload


def test_unreachable_destination_rejected_cleanly():
    """A request between disconnected components is refused at stamping,
    never reaching the matcher."""
    g = RoadNetwork(
        6,
        [(0, 1, 10.0), (1, 2, 10.0), (3, 4, 10.0), (4, 5, 10.0)],
    )
    engine = DijkstraEngine(g)
    agent = KineticAgent(Vehicle(0, 0, capacity=4), engine)
    dispatcher = Dispatcher(engine, [agent])
    assert dispatcher.make_request(0, 5, 0.0, 600.0, 0.2) is None


def test_simulation_skips_unreachable_trips(small_city, city_engine):
    """Degenerate trip specs (origin == destination) are dropped, and the
    simulation completes normally."""
    trips = [
        TripSpec(0, 0, 10.0),  # degenerate
        TripSpec(0, 25, 20.0),
        TripSpec(30, 30, 30.0),  # degenerate
        TripSpec(40, 75, 40.0),
    ]
    report = simulate(
        city_engine, SimulationConfig(num_vehicles=4, seed=0), trips
    )
    assert report.num_requests == 2
    assert report.verify_service_guarantees() == []


def test_zero_wait_requests_all_rejected(small_city, city_engine):
    from repro.core.constraints import ConstraintConfig

    trips = [TripSpec(0, 25, 10.0), TripSpec(90, 12, 20.0)]
    config = SimulationConfig(
        num_vehicles=3,
        constraints=ConstraintConfig(1e-6, 0.0),
        seed=0,
    )
    report = simulate(city_engine, config, trips)
    # A vehicle would have to sit exactly on the pickup vertex; with 3
    # random vehicles on 100 vertices rejection is the expected outcome.
    assert report.num_rejected >= 1


def test_budget_exceeded_propagates_from_simulation(small_city, city_engine):
    """An unlimited-capacity burst with a tiny expansion budget must
    surface TreeBudgetExceeded rather than hang."""
    trips = burst_workload(
        small_city, center_vertex=55, num_trips=8, request_time=10.0,
        dest_center_vertex=0, seed=3,
    )
    config = SimulationConfig(
        num_vehicles=1,
        capacity=None,
        algorithm="kinetic",
        tree_mode="basic",
        tree_expansion_budget=30,
        seed=0,
    )
    with pytest.raises(TreeBudgetExceeded):
        simulate(city_engine, config, trips)


def test_real_quote_error_fails_the_run(monkeypatch):
    """A quote stage that raises for one vehicle must fail the run: the
    error propagates out of ``Simulation.run`` instead of being retried
    or turned into an infeasible column."""
    original = costs.quote_column
    planted = []

    def quote_column(agent, requests, now):
        if agent.vehicle.vehicle_id == 2:
            planted.append(now)
            raise ZeroDivisionError("planted quote error")
        return original(agent, requests, now)

    monkeypatch.setattr(costs, "quote_column", quote_column)
    monkeypatch.setattr(quoting, "quote_column", quote_column)
    city = grid_city(12, 12, seed=5)
    trips = ShanghaiLikeWorkload(city, seed=5, min_trip_meters=600.0).generate(
        num_trips=40, duration_seconds=600
    )
    config = SimulationConfig(
        num_vehicles=6,
        algorithm="kinetic",
        seed=5,
        dispatch_policy="lap",
        batch_window_s=10.0,
    )
    sim = Simulation(MatrixEngine(city), config, trips)
    with pytest.raises(ZeroDivisionError, match="planted quote error"):
        sim.run()
    assert len(planted) == 1


def test_single_vehicle_fleet(small_city, city_engine):
    trips = [TripSpec(0, 25, 10.0), TripSpec(26, 60, 400.0)]
    report = simulate(
        city_engine, SimulationConfig(num_vehicles=1, seed=0), trips
    )
    assert report.num_assigned >= 1
    assert report.verify_service_guarantees() == []


def test_all_requests_at_same_instant(small_city, city_engine):
    trips = [TripSpec(i * 7 % 99, (i * 13 + 1) % 99, 50.0) for i in range(6)]
    trips = [t for t in trips if t.origin != t.destination]
    report = simulate(
        city_engine, SimulationConfig(num_vehicles=5, seed=1), trips
    )
    assert report.num_requests == len(trips)
    assert report.verify_service_guarantees() == []
