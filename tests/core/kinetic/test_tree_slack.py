"""Slack-time filtering (Theorem 1) must be a pure speedup: identical
trees, identical best schedules, never over-pruning."""

import numpy as np
import pytest

from repro.core.kinetic.node import stop_latest_arrival
from repro.core.kinetic.tree import KineticTree
from repro.core.problem import SchedulingProblem
from repro.core.request import TripRequest
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.matrix import MatrixEngine


def drive_both(engine, seed, steps=5, capacity=4, wait=600.0, eps=0.5):
    """Feed the same request stream to a basic and a slack tree."""
    rng = np.random.default_rng(seed)
    n = engine.graph.num_vertices
    basic = KineticTree(engine, 0, capacity=capacity, mode="basic")
    slack = KineticTree(engine, 0, capacity=capacity, mode="slack")
    t = 0.0
    for rid in range(steps):
        o, d = (int(x) for x in rng.integers(0, n, 2))
        if o == d:
            continue
        request = TripRequest(rid, o, d, t, wait, eps, engine.distance(o, d))
        trial_b = basic.try_insert(request, basic.root_vertex, t)
        trial_s = slack.try_insert(request, slack.root_vertex, t)
        # Acceptance decisions must agree.
        assert (trial_b is None) == (trial_s is None), (
            f"slack filter changed feasibility for request {rid}"
        )
        if trial_b is None:
            continue
        assert trial_s.best_cost == pytest.approx(trial_b.best_cost, rel=1e-9)
        basic.commit(trial_b)
        slack.commit(trial_s)
        # Occasionally execute a stop so onboard state diversifies.
        if rid % 2 == 1 and basic.committed:
            basic.advance()
            slack.advance()
        t += 60.0
    return basic, slack


@pytest.mark.parametrize("seed", range(10))
def test_slack_equals_basic_costs(city_engine, seed):
    basic, slack = drive_both(city_engine, seed)
    assert basic.num_schedules() == slack.num_schedules()
    basic_set = {stops for stops, _ in basic.all_schedules()}
    slack_set = {stops for stops, _ in slack.all_schedules()}
    assert basic_set == slack_set


@pytest.mark.parametrize("seed", range(5))
def test_slack_equals_basic_tight_constraints(city_engine, seed):
    # Tight constraints are where the filter prunes most (paper: ~32%
    # savings at 5 min / 10%) and where over-pruning would show.
    basic, slack = drive_both(
        city_engine, seed, steps=6, wait=240.0, eps=0.15
    )
    assert {s for s, _ in basic.all_schedules()} == {
        s for s, _ in slack.all_schedules()
    }


def test_slack_filter_reduces_expansions(city_engine):
    """With tight constraints the filter should cut search work."""
    rng = np.random.default_rng(3)
    n = city_engine.graph.num_vertices
    total = {"basic": 0, "slack": 0}
    for mode in ("basic", "slack"):
        rng = np.random.default_rng(3)
        tree = KineticTree(city_engine, 0, capacity=6, mode=mode)
        t = 0.0
        for rid in range(8):
            o, d = (int(x) for x in rng.integers(0, n, 2))
            if o == d:
                continue
            request = TripRequest(
                rid, o, d, t, 300.0, 0.3, city_engine.distance(o, d)
            )
            trial = tree.try_insert(request, tree.root_vertex, t)
            if trial is not None:
                total[mode] += trial.expansions
                tree.commit(trial)
            t += 30.0
    assert total["slack"] <= total["basic"]


def test_deltas_satisfy_recurrence(city_engine, make_request):
    """∆ = min(own slack, max over children ∆) after every commit."""
    tree = KineticTree(city_engine, 0, capacity=4, mode="slack")
    for i, (o, d) in enumerate([(5, 20), (8, 30), (40, 60)]):
        trial = tree.try_insert(
            make_request(o, d, epsilon=1.5, max_wait=1500.0), tree.root_vertex, 0.0
        )
        if trial is not None:
            tree.commit(trial)

    def check(node):
        own = min(
            stop_latest_arrival(stop, tree.onboard) - arrival
            for stop, arrival in zip(node.stops, node.arrivals)
        )
        if node.children:
            expected = min(own, max(check(c) for c in node.children))
        else:
            expected = own
        assert node.delta == pytest.approx(expected)
        return node.delta

    for child in tree.children:
        check(child)


def test_slack_never_negative_on_committed_path(city_engine, make_request):
    """Every committed node must have non-negative slack — otherwise the
    tree admitted a schedule violating some constraint."""
    tree = KineticTree(city_engine, 0, capacity=4, mode="slack")
    for o, d in [(5, 20), (8, 30)]:
        trial = tree.try_insert(
            make_request(o, d, epsilon=1.0), tree.root_vertex, 0.0
        )
        if trial is not None:
            tree.commit(trial)
    for node in tree.committed:
        for stop, arrival in zip(node.stops, node.arrivals):
            assert stop_latest_arrival(stop, tree.onboard) - arrival >= -1e-6


def spur_tree(mode, max_wait):
    """Riders A (bound for vertex 5) and B (vertex 3) on board at vertex
    0 of the line 0-1-2-3-4-5 (10 s per edge), with a spur 0-6. Both
    visiting orders are valid and each root child's ∆ is 19.5 s. A new
    rider waits at the spur: picking them up first delays either order
    by 20 s, half a second more than ∆ allows, and every later pickup
    position is reached at 70 s or later."""
    edges = [(v, v + 1, 10.0) for v in range(5)] + [(0, 6, 10.0)]
    engine = MatrixEngine(RoadNetwork(7, edges))
    rider_a = TripRequest(1, 0, 5, 0.0, 60.0, 69.5 / 50.0 - 1.0, 50.0)
    rider_b = TripRequest(2, 0, 3, 0.0, 60.0, 89.5 / 30.0 - 1.0, 30.0)
    problem = SchedulingProblem(0, 0.0, {rider_a: 0.0, rider_b: 0.0}, (), None, 4)
    tree = KineticTree.from_problem(engine, problem, mode=mode)
    assert len(tree.children) == 2
    assert [c.delta for c in tree.children] == pytest.approx([19.5, 19.5])
    newcomer = TripRequest(3, 6, 0, 0.0, max_wait, 1.0, 10.0)
    return tree, newcomer


def test_screen_rejects_when_every_child_is_slack_blocked():
    """Every root child is blocked by 0.5 s and the leaves are reached
    at 110 s, past the 100 s pickup deadline: no descent at all."""
    tree, newcomer = spur_tree("slack", max_wait=100.0)
    assert tree.try_insert(newcomer, 0, 0.0) is None
    assert tree._expansions == 0
    basic, newcomer = spur_tree("basic", max_wait=100.0)
    assert basic.try_insert(newcomer, 0, 0.0) is None
    assert basic._expansions > 0


def test_screen_keeps_a_vehicle_that_can_only_append():
    """With a 200 s pickup deadline only appending after both dropoffs
    survives the screen; the walk then finds exactly those schedules."""
    tree, newcomer = spur_tree("slack", max_wait=200.0)
    trial = tree.try_insert(newcomer, 0, 0.0)
    assert trial is not None and trial.expansions > 0
    assert trial.best_cost == pytest.approx(120.0)
    basic, newcomer = spur_tree("basic", max_wait=200.0)
    assert basic.try_insert(newcomer, 0, 0.0).best_cost == trial.best_cost
