"""Immediate dispatch runs through the batch layer as singleton batches.

That ``batch_window_s=0`` + ``greedy`` decides exactly as the seed's
per-request dispatcher is determinism contract 1, pinned in
``tests/test_contracts.py``.
"""

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.workload import ShanghaiLikeWorkload


def test_batch_metrics_recorded_at_window_zero():
    """Immediate mode still reports its (singleton) batches."""
    city = grid_city(14, 14, seed=11)
    trips = ShanghaiLikeWorkload(city, seed=11, min_trip_meters=600.0).generate(
        num_trips=70, duration_seconds=1500
    )
    report = simulate(
        MatrixEngine(city),
        SimulationConfig(num_vehicles=10, algorithm="kinetic", seed=3),
        trips,
    )
    assert report.num_batches == report.num_requests
    assert report.summary()["max_batch_size"] == 1
