"""The batched subsystem at window 0 IS the seed's immediate dispatcher.

``batch_window_s=0`` + the ``greedy`` policy must reproduce the
pre-subsystem behavior *exactly*: same winners, same costs, same pickup
and dropoff times, same rejection set — byte-identical on every
deterministic metric. The reference below re-implements the seed
simulator's per-request ``_handle_request`` verbatim against the plain
:class:`~repro.core.matching.Dispatcher`, bypassing the batch layer.
"""

import pytest

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulation, simulate
from repro.sim.workload import ShanghaiLikeWorkload


class ImmediateReferenceSimulation(Simulation):
    """The seed's request handler: quote-all, commit cheapest, inline."""

    def _handle_request(self, spec, now, queue):
        request = self.dispatcher.make_request(
            spec.origin,
            spec.destination,
            now,
            self.config.constraints.max_wait_seconds,
            self.config.constraints.detour_epsilon,
        )
        if request is None:
            return
        result = self.dispatcher.submit(request, now)
        self.report.record_assignment(result)
        if result.assigned:
            self.report.service_log[request.request_id] = {
                "request": request,
                "vehicle": result.winner.vehicle.vehicle_id,
                "assigned_cost": result.cost,
            }
            agent = result.winner
            self._schedule_next_stop(agent, queue)
            if self.grid_index is not None:
                self._report_location(agent, now)


@pytest.fixture(scope="module")
def scenario():
    city = grid_city(14, 14, seed=11)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=11, min_trip_meters=600.0).generate(
        num_trips=70, duration_seconds=1500
    )
    return engine, trips


def _deterministic_state(report):
    """Everything a run produces except wall-clock timings."""
    return {
        "num_requests": report.num_requests,
        "num_assigned": report.num_assigned,
        "num_rejected": report.num_rejected,
        "total_cost": report.total_assignment_cost,
        "candidates": (report.candidate_counts.count, report.candidate_counts.total),
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


@pytest.mark.parametrize("algorithm", ["kinetic", "insertion"])
def test_window_zero_greedy_equals_immediate_dispatcher(scenario, algorithm):
    engine, trips = scenario
    config = SimulationConfig(
        num_vehicles=10,
        algorithm=algorithm,
        seed=3,
        dispatch_policy="greedy",
        batch_window_s=0.0,
    )
    batched = Simulation(engine, config, trips).run()
    reference = ImmediateReferenceSimulation(engine, config, trips).run()
    assert _deterministic_state(batched) == _deterministic_state(reference)


def test_window_zero_lap_equals_greedy(scenario):
    """Singleton batches leave nothing to optimise: lap at window 0 picks
    the same cheapest vehicle (and breaks exact-cost ties the same way)
    as greedy. (Quotes within greedy's 1e-9 tie tolerance but not exactly
    equal could in principle diverge; this workload has none.) ART sample
    counts differ by design: greedy trial-inserts only the vehicles its
    fleet screen lets through, lap quotes the whole column."""
    engine, trips = scenario
    states = {}
    for policy in ("greedy", "lap"):
        config = SimulationConfig(
            num_vehicles=10,
            algorithm="kinetic",
            seed=3,
            dispatch_policy=policy,
            batch_window_s=0.0,
        )
        states[policy] = _deterministic_state(simulate(engine, config, trips))
        del states[policy]["art_counts"]
    assert states["greedy"] == states["lap"]


def test_batch_metrics_recorded_at_window_zero(scenario):
    """Immediate mode still reports its (singleton) batches."""
    engine, trips = scenario
    report = simulate(
        engine,
        SimulationConfig(num_vehicles=10, algorithm="kinetic", seed=3),
        trips,
    )
    assert report.num_batches == report.num_requests
    assert report.batch_sizes.max == 1
