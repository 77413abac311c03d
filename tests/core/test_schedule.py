"""The reference schedule validator (Definition 2)."""

import pytest

from repro.core.request import TripRequest
from repro.core.schedule import check_structure, evaluate_schedule, schedule_cost
from repro.core.stop import dropoff, pickup
from repro.exceptions import ScheduleError


class StraightLineEngine:
    """Engine over the integer line: d(u, v) = |u - v| seconds."""

    def distance(self, u, v):
        return float(abs(u - v))


ENGINE = StraightLineEngine()


def request(rid, origin, destination, t=0.0, wait=100.0, eps=0.5):
    return TripRequest(
        rid, origin, destination, t, wait, eps, ENGINE.distance(origin, destination)
    )


def test_single_trip_valid():
    r = request(1, 10, 20)
    evaluation = evaluate_schedule(ENGINE, 0, 0.0, [pickup(r), dropoff(r)], {})
    assert evaluation is not None
    assert evaluation.cost == 20.0
    assert evaluation.arrivals == (10.0, 20.0)
    assert evaluation.completion_time == 20.0


def test_wait_violation():
    r = request(1, 10, 20, wait=5.0)  # pickup at t=10 > deadline 5
    assert evaluate_schedule(ENGINE, 0, 0.0, [pickup(r), dropoff(r)], {}) is None


def test_wait_exactly_at_deadline_ok():
    r = request(1, 10, 20, wait=10.0)
    assert evaluate_schedule(ENGINE, 0, 0.0, [pickup(r), dropoff(r)], {}) is not None


def test_pickup_within_tolerance_after_deadline_accepted_everywhere():
    """A pickup reached 5e-7 s after its deadline is inside the shared
    1e-6 s tolerance: the reference validator, brute force and the
    kinetic tree (including its self-check against the validator) all
    accept it."""
    from repro.algorithms.brute_force import BruteForce
    from repro.core.kinetic.tree import KineticTree
    from repro.core.problem import SchedulingProblem
    from repro.roadnet.graph import RoadNetwork
    from repro.roadnet.matrix import MatrixEngine

    engine = MatrixEngine(RoadNetwork(3, [(0, 1, 10.0), (1, 2, 10.0)]))
    r = TripRequest(1, 1, 2, 0.0, 10.0 - 5e-7, 0.5, 10.0)
    assert 0.0 < 10.0 - r.pickup_deadline < 1e-6

    evaluation = evaluate_schedule(engine, 0, 0.0, [pickup(r), dropoff(r)], {})
    assert evaluation is not None and evaluation.arrivals == (10.0, 20.0)

    problem = SchedulingProblem(0, 0.0, {}, (), r, capacity=4)
    result = BruteForce(engine).solve(problem)
    assert result is not None and result.cost == 20.0

    tree = KineticTree(engine, 0, 0.0, capacity=4)
    trial = tree.try_insert(r, 0, 0.0)
    assert trial is not None and trial.best_cost == 20.0
    tree.commit(trial)
    tree.validate()


def test_ride_violation_via_detour():
    # Trip 1: 10 -> 20 with eps=0.1 (budget 11); detour to 25 makes the
    # on-road cost 5 + 5 + ... = 20 > 11.
    r1 = request(1, 10, 20, eps=0.1)
    r2 = request(2, 25, 30, wait=1000.0)
    stops = [pickup(r1), pickup(r2), dropoff(r1), dropoff(r2)]
    assert evaluate_schedule(ENGINE, 0, 0.0, stops, {}) is None


def test_ride_within_budget_with_detour():
    r1 = request(1, 10, 20, eps=2.0)  # budget 30
    r2 = request(2, 15, 30, wait=1000.0)
    stops = [pickup(r1), pickup(r2), dropoff(r1), dropoff(r2)]
    evaluation = evaluate_schedule(ENGINE, 0, 0.0, stops, {})
    assert evaluation is not None


def test_onboard_ride_budget_counts_from_actual_pickup():
    r = request(1, 10, 40, eps=0.0)  # budget exactly 30
    # Picked up at t=5; vehicle now at 15 at t=10 (already 5 used... on
    # the line: pickup at vertex 10 at time 5, dropoff deadline 35).
    evaluation = evaluate_schedule(ENGINE, 15, 10.0, [dropoff(r)], {1: 5.0})
    assert evaluation is not None  # arrives at 40 at t=35 == 5 + 30
    late = evaluate_schedule(ENGINE, 15, 11.0, [dropoff(r)], {1: 5.0})
    assert late is None  # arrives at t=36 > 35


def test_capacity_violation():
    r1 = request(1, 10, 30, wait=1000.0)
    r2 = request(2, 11, 31, wait=1000.0, eps=5.0)
    stops = [pickup(r1), pickup(r2), dropoff(r1), dropoff(r2)]
    assert evaluate_schedule(ENGINE, 0, 0.0, stops, {}, capacity=1) is None
    r1_loose = request(1, 10, 30, wait=1000.0, eps=5.0)
    stops_seq = [pickup(r1_loose), dropoff(r1_loose), pickup(r2), dropoff(r2)]
    assert (
        evaluate_schedule(ENGINE, 0, 0.0, stops_seq, {}, capacity=1) is not None
    )


def test_capacity_counts_initial_load():
    r = request(1, 10, 30, wait=1000.0)
    onboard = request(9, 1, 20, wait=1000.0, eps=10.0)
    stops = [pickup(r), dropoff(onboard), dropoff(r)]
    assert (
        evaluate_schedule(ENGINE, 0, 0.0, stops, {9: 0.0}, capacity=1) is None
    )
    assert (
        evaluate_schedule(ENGINE, 0, 0.0, stops, {9: 0.0}, capacity=2) is not None
    )


def test_unlimited_capacity():
    requests = [request(i, 10 + i, 50 + i, wait=1000.0, eps=5.0) for i in range(6)]
    stops = [pickup(r) for r in requests] + [dropoff(r) for r in requests]
    assert evaluate_schedule(ENGINE, 0, 0.0, stops, {}, capacity=None) is not None


def test_dropoff_before_pickup_raises():
    r = request(1, 10, 20)
    with pytest.raises(ScheduleError):
        evaluate_schedule(ENGINE, 0, 0.0, [dropoff(r), pickup(r)], {})


def test_empty_schedule():
    evaluation = evaluate_schedule(ENGINE, 0, 0.0, [], {})
    assert evaluation is not None
    assert evaluation.cost == 0.0
    assert evaluation.completion_time == 0.0


def test_schedule_cost():
    r1 = request(1, 10, 20)
    assert schedule_cost(ENGINE, 0, [pickup(r1), dropoff(r1)]) == 20.0


# ----------------------------------------------------------------------
# check_structure
# ----------------------------------------------------------------------
def test_structure_ok():
    r = request(1, 10, 20)
    check_structure([pickup(r), dropoff(r)], set())


def test_structure_onboard_dropoff_only():
    r = request(1, 10, 20)
    check_structure([dropoff(r)], {1})


def test_structure_dropoff_before_pickup():
    r = request(1, 10, 20)
    with pytest.raises(ScheduleError):
        check_structure([dropoff(r), pickup(r)], set())


def test_structure_double_pickup():
    r = request(1, 10, 20)
    with pytest.raises(ScheduleError):
        check_structure([pickup(r), pickup(r), dropoff(r)], set())


def test_structure_double_dropoff():
    r = request(1, 10, 20)
    with pytest.raises(ScheduleError):
        check_structure([pickup(r), dropoff(r), dropoff(r)], set())


def test_structure_onboard_pickup_rejected():
    r = request(1, 10, 20)
    with pytest.raises(ScheduleError):
        check_structure([pickup(r), dropoff(r)], {1})


def test_structure_missing_dropoff():
    r = request(1, 10, 20)
    with pytest.raises(ScheduleError):
        check_structure([pickup(r)], set())
