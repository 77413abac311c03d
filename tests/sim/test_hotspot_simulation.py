"""Hotspot-tree vehicles inside the full simulator: group stops, index
interplay, and end-to-end guarantees under bursty demand."""

import pytest

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.workload import ShanghaiLikeWorkload, burst_workload


@pytest.fixture(scope="module")
def city():
    return grid_city(14, 14, seed=17)


@pytest.fixture(scope="module")
def engine(city):
    return MatrixEngine(city)


@pytest.fixture(scope="module")
def bursty_trips(city):
    workload = ShanghaiLikeWorkload(city, seed=17, min_trip_meters=600.0)
    trips = workload.generate(num_trips=60, duration_seconds=1200)
    trips += burst_workload(
        city,
        center_vertex=int(workload.hotspots[0]),
        num_trips=7,
        request_time=trips[0].request_time + 600.0,
        dest_center_vertex=int(workload.hotspots[1]),
        seed=4,
    )
    trips.sort(key=lambda t: t.request_time)
    return trips


def test_hotspot_sim_guarantees(engine, bursty_trips):
    config = SimulationConfig(
        num_vehicles=8,
        capacity=None,
        algorithm="kinetic",
        hotspot_theta=45.0,
        tree_expansion_budget=500_000,
        seed=2,
    )
    report = simulate(engine, config, bursty_trips)
    assert report.verify_service_guarantees() == []
    assert report.service_rate > 0.6


def test_hotspot_faster_than_basic_on_bursts(engine, bursty_trips):
    """On bursty demand at high capacity, hotspot ACRT must beat basic."""
    reports = {}
    for name, theta, mode in (("basic", None, "basic"), ("hotspot", 45.0, "slack")):
        config = SimulationConfig(
            num_vehicles=6,
            capacity=None,
            algorithm="kinetic",
            tree_mode=mode,
            hotspot_theta=theta,
            tree_expansion_budget=500_000,
            seed=2,
        )
        reports[name] = simulate(engine, config, bursty_trips)
    assert reports["hotspot"].acrt_ms < reports["basic"].acrt_ms
    # Approximation trades cost, never validity.
    assert reports["hotspot"].verify_service_guarantees() == []


def test_group_stops_reported_individually(engine, bursty_trips):
    """Hotspot group nodes service several stops in one event; each stop
    must still be logged with its own arrival time."""
    config = SimulationConfig(
        num_vehicles=4,
        capacity=None,
        algorithm="kinetic",
        hotspot_theta=60.0,
        tree_expansion_budget=500_000,
        seed=3,
    )
    report = simulate(engine, config, bursty_trips)
    completed = [
        entry
        for entry in report.service_log.values()
        if "pickup" in entry and "dropoff" in entry
    ]
    assert completed
    for entry in completed:
        assert entry["dropoff"] >= entry["pickup"] - 1e-9
