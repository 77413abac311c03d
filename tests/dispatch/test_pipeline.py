"""The batched flush's quote stage.

The flush runs ``QuoteService`` for the matrix policies and skips it
for ``greedy``, which quotes inline. That the flush decides exactly as
the pre-pipeline synchronous block did is determinism contract 4,
pinned in ``tests/test_contracts.py``.
"""

import pytest

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.workload import ShanghaiLikeWorkload


@pytest.fixture(scope="module")
def scenario():
    city = grid_city(16, 16, seed=9)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=9, min_trip_meters=800.0).generate(
        num_trips=90, duration_seconds=1500
    )
    return engine, trips


def _run(scenario, policy, **overrides):
    engine, trips = scenario
    config = SimulationConfig(
        num_vehicles=10,
        algorithm="kinetic",
        seed=5,
        dispatch_policy=policy,
        batch_window_s=20.0,
        **overrides,
    )
    return simulate(engine, config, trips)


def test_greedy_pipeline_skips_quote_stage(scenario):
    """The greedy policy quotes inline, so the flush must not build a
    matrix it would ignore — and still dispatch."""
    report = _run(scenario, "greedy")
    assert report.summary()["pipeline_flushes"] == 0
    assert report.num_assigned > 0
    assert report.verify_service_guarantees() == []

