"""The batched flush: quote -> solve -> commit at the flush instant.

* **degeneration** — the flush (controller retune, snapshot, the
  hardened quote stage, then the policy) is bit-identical to the
  pre-pipeline synchronous order, pinned against a reference simulation
  that re-implements the old single-event flush verbatim, for the
  global ``lap`` solve, the ``sharded`` policy and ``iterative``;
* **the quote stage** — ``QuoteService`` builds exactly the matrix
  ``build_cost_matrix`` builds, and is skipped for ``greedy``, which
  quotes inline.
"""

import pytest

from repro.core.matching import Dispatcher
from repro.dispatch.costs import build_cost_matrix
from repro.dispatch.quoting import QuoteService
from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.events import Event, EventKind
from repro.sim.fleet import build_fleet
from repro.sim.simulator import Simulation, simulate
from repro.sim.workload import ShanghaiLikeWorkload


@pytest.fixture(scope="module")
def scenario():
    city = grid_city(16, 16, seed=9)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=9, min_trip_meters=800.0).generate(
        num_trips=90, duration_seconds=1500
    )
    return engine, trips


def _deterministic_state(report):
    """Everything a run produces except wall-clock timings."""
    return {
        "num_requests": report.num_requests,
        "num_assigned": report.num_assigned,
        "num_rejected": report.num_rejected,
        "total_cost": report.total_assignment_cost,
        "art_counts": {k: v.count for k, v in report.art.buckets.items()},
        "occupancy": dict(report.occupancy._max_by_vehicle),
        "service_log": {
            rid: {
                "vehicle": entry.get("vehicle"),
                "assigned_cost": entry.get("assigned_cost"),
                "pickup": entry.get("pickup"),
                "dropoff": entry.get("dropoff"),
            }
            for rid, entry in report.service_log.items()
        },
    }


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


# ----------------------------------------------------------------------
# Degeneration: the flush is the old synchronous order
# ----------------------------------------------------------------------
class SynchronousReferenceSimulation(Simulation):
    """The pre-pipeline flush handler, verbatim: quote+solve+commit as
    one blob inside ``BATCH_DISPATCH``, old chain-end condition."""

    def _handle_batch_flush(self, now, queue):
        requests = self.batch_window.flush()
        if requests:
            self._dispatch_batch(requests, now, queue)
        next_time = now + self.config.batch_window_s
        if next_time <= self.horizon + self.config.batch_window_s:
            queue.push(Event(next_time, EventKind.BATCH_DISPATCH))


@pytest.mark.parametrize(
    "policy,overrides",
    [("lap", {}), ("sharded", {"num_shards": 3}), ("iterative", {})],
)
def test_workers_zero_pipeline_is_bit_identical_to_synchronous(
    scenario, policy, overrides
):
    """Contract 4: the batched flush ≡ the pre-pipeline reference."""
    engine, trips = scenario
    config = SimulationConfig(
        num_vehicles=10,
        algorithm="kinetic",
        seed=5,
        dispatch_policy=policy,
        batch_window_s=20.0,
        **overrides,
    )
    flushed = Simulation(engine, config, trips).run()
    reference = SynchronousReferenceSimulation(engine, config, trips).run()
    assert _deterministic_state(flushed) == _deterministic_state(reference)
    # Every non-empty flush ran the quote stage exactly once.
    assert flushed.quote_seconds.count == flushed.num_batches


def test_greedy_pipeline_skips_quote_stage(scenario):
    """The greedy policy quotes inline, so the flush must not build a
    matrix it would ignore — and still dispatch."""
    report = _run(scenario, "greedy")
    assert report.quote_seconds.count == 0
    assert report.num_assigned > 0
    assert report.verify_service_guarantees() == []


# ----------------------------------------------------------------------
# The QuoteService itself
# ----------------------------------------------------------------------
def _flush_fixture(num_vehicles=8, num_requests=10, seed=3):
    city = grid_city(12, 12, seed=seed)
    engine = MatrixEngine(city)
    config = SimulationConfig(num_vehicles=num_vehicles, seed=seed)
    agents = build_fleet(engine, config, start_time=0.0)
    dispatcher = Dispatcher(engine, agents)
    specs = ShanghaiLikeWorkload(city, seed=seed, min_trip_meters=400.0).generate(
        num_trips=num_requests * 2, duration_seconds=600
    )
    requests = []
    for spec in specs:
        request = dispatcher.make_request(
            spec.origin, spec.destination, 0.0, 600.0, 0.2
        )
        if request is not None:
            requests.append(request)
        if len(requests) >= num_requests:
            break
    return engine, dispatcher, requests


def _matrices_equal(a, b):
    import numpy as np

    if a.shape != b.shape:
        return False
    same = (a.keys == b.keys) | (np.isinf(a.keys) & np.isinf(b.keys))
    return bool(same.all())


def test_quote_service_sync_build_matches_build_cost_matrix():
    engine, dispatcher, requests = _flush_fixture()
    quote_set = QuoteService().build(dispatcher, requests, 0.0)
    fresh = build_cost_matrix(dispatcher, requests, 0.0)
    assert _matrices_equal(quote_set.matrix, fresh)
    assert quote_set.requotes == 0
    assert quote_set.failed_columns == () and not quote_set.deadline_exceeded
