"""Property-based tests of the kinetic tree — the paper's core claims
as hypothesis invariants.

* the tree's best augmented schedule always equals brute force (the tree
  is exact);
* slack filtering never changes the result (Theorem 1 safety);
* every materialized schedule passes the reference validator;
* hotspot trees, an approximation, never produce *invalid* schedules and
  never beat the exact optimum;
* the pickup screen in ``try_insert`` rejects exactly the trials its rule
  names, and never one the exact walk would accept.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.brute_force import BruteForce
from repro.core.kinetic.tree import (
    EPSILON,
    SCREEN_MARGIN,
    KineticTree,
    misses_pickup,
)
from repro.core.problem import SchedulingProblem
from repro.core.request import TripRequest
from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine

CITY = grid_city(8, 8, seed=99)
ENGINE = MatrixEngine(CITY)
N = CITY.num_vertices


@st.composite
def request_streams(draw):
    """A start vertex plus 2-5 requests with varied constraints.

    Request times must be non-decreasing — the simulator only ever
    feeds the tree in event order, and a time-reversed stream asks the
    tree (whose clock has already advanced) a different question than
    a from-scratch reference solver. The stagger step is therefore
    drawn once per stream: either a simultaneous batch (step 0) or a
    30s-staggered arrival sequence.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    count = draw(st.integers(min_value=2, max_value=5))
    tight = draw(st.booleans())
    step = draw(st.sampled_from([0.0, 30.0]))
    rng = np.random.default_rng(seed)
    wait = 240.0 if tight else 900.0
    eps = 0.25 if tight else 1.0
    requests = []
    rid = 0
    while len(requests) < count:
        o, d = (int(x) for x in rng.integers(0, N, 2))
        if o == d:
            continue
        t = len(requests) * step
        requests.append(
            TripRequest(rid, o, d, t, wait, eps, ENGINE.distance(o, d))
        )
        rid += 1
    start = int(rng.integers(0, N))
    return start, requests


@given(request_streams())
@settings(max_examples=40, deadline=None)
def test_tree_insertion_matches_bruteforce(case):
    start, requests = case
    tree = KineticTree(ENGINE, start, capacity=4, mode="basic")
    accepted = []
    for request in requests:
        t = request.request_time
        trial = tree.try_insert(request, tree.root_vertex, t)
        problem = SchedulingProblem(
            tree.root_vertex, t, {}, tuple(accepted + [request]), None, 4
        )
        reference = BruteForce(ENGINE).solve(problem)
        assert (trial is None) == (reference is None)
        if trial is not None:
            assert trial.best_cost == pytest.approx(reference.cost, rel=1e-9)
            tree.commit(trial)
            accepted.append(request)


@given(request_streams())
@settings(max_examples=40, deadline=None)
def test_slack_is_pure_speedup(case):
    start, requests = case
    basic = KineticTree(ENGINE, start, capacity=4, mode="basic")
    slack = KineticTree(ENGINE, start, capacity=4, mode="slack")
    for request in requests:
        t = request.request_time
        trial_b = basic.try_insert(request, basic.root_vertex, t)
        trial_s = slack.try_insert(request, slack.root_vertex, t)
        assert (trial_b is None) == (trial_s is None)
        if trial_b is None:
            continue
        assert trial_s.best_cost == pytest.approx(trial_b.best_cost, rel=1e-9)
        basic.commit(trial_b)
        slack.commit(trial_s)
    assert {s for s, _ in basic.all_schedules()} == {
        s for s, _ in slack.all_schedules()
    }


@given(request_streams())
@settings(max_examples=30, deadline=None)
def test_all_materialized_schedules_valid(case):
    start, requests = case
    tree = KineticTree(ENGINE, start, capacity=4, mode="slack")
    for request in requests:
        trial = tree.try_insert(request, tree.root_vertex, request.request_time)
        if trial is not None:
            tree.commit(trial)
    tree.validate()  # raises on any invalid schedule


@given(request_streams())
@settings(max_examples=30, deadline=None)
def test_validity_preserved_under_movement(case):
    start, requests = case
    tree = KineticTree(ENGINE, start, capacity=4, mode="slack")
    for request in requests:
        trial = tree.try_insert(request, tree.root_vertex, request.request_time)
        if trial is not None:
            tree.commit(trial)
        # Execute one committed stop between insertions.
        if tree.committed:
            tree.advance()
            tree.validate()


@given(request_streams(), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_beam_is_subset_of_exact(case, cap):
    """A schedule-capped tree materializes a subset of the exact tree's
    schedules (never an invalid or novel one), and its best schedule is
    never cheaper than the exact optimum."""
    start, requests = case
    exact = KineticTree(ENGINE, start, capacity=4, mode="basic")
    capped = KineticTree(ENGINE, start, capacity=4, mode="basic", schedule_cap=cap)
    for request in requests:
        t = request.request_time
        trial_e = exact.try_insert(request, exact.root_vertex, t)
        trial_c = capped.try_insert(request, capped.root_vertex, t)
        if trial_c is not None:
            assert trial_e is not None
            assert trial_c.best_cost >= trial_e.best_cost - 1e-9
        if trial_e is not None and trial_c is not None:
            exact.commit(trial_e)
            capped.commit(trial_c)
    capped_set = {s for s, _ in capped.all_schedules()}
    exact_set = {s for s, _ in exact.all_schedules()}
    assert capped_set <= exact_set
    assert len(capped_set) <= max(
        1, cap
    ) or not capped_set  # the cap is respected
    capped.validate()


@given(request_streams(), st.integers(10, 90))
@settings(max_examples=30, deadline=None)
def test_hotspot_valid_and_never_better(case, theta):
    start, requests = case
    exact = KineticTree(ENGINE, start, capacity=4, mode="basic")
    hotspot = KineticTree(
        ENGINE, start, capacity=4, mode="slack", hotspot_theta=float(theta)
    )
    for request in requests:
        t = request.request_time
        trial_e = exact.try_insert(request, exact.root_vertex, t)
        trial_h = hotspot.try_insert(request, hotspot.root_vertex, t)
        # Hotspot schedules form a subset: it can only accept when the
        # exact tree accepts.
        if trial_h is not None:
            assert trial_e is not None
            assert trial_h.best_cost >= trial_e.best_cost - 1e-6
        # Keep the two trees in sync on the accepted set.
        if trial_e is not None and trial_h is not None:
            exact.commit(trial_e)
            hotspot.commit(trial_h)
    hotspot.validate()


@st.composite
def deep_streams(draw):
    """A start vertex, loose or tight constraints, and 6-12 trips, each
    with where along the committed route the vehicle stands when it is
    requested: how many committed stops it has passed and how far along
    the shortest path to the next one it is."""
    seed = draw(st.integers(0, 2**31 - 1))
    count = draw(st.integers(min_value=6, max_value=12))
    tight = draw(st.booleans())
    rng = np.random.default_rng(seed)
    wait, eps = (150.0, 0.3) if tight else (400.0, 0.8)
    trips = []
    while len(trips) < count:
        o, d = (int(x) for x in rng.integers(0, N, 2))
        if o != d:
            trips.append((o, d, int(rng.integers(0, 2)), float(rng.random())))
    return int(rng.integers(0, N)), wait, eps, trips


def decision_point(tree, passed, fraction):
    """Advance ``tree`` past ``passed`` committed stops, then stand at a
    vertex of the shortest path to the next one, timed by summed edge
    weights as the vehicle's route is."""
    for _ in range(passed):
        if tree.committed:
            tree.advance()
    if not tree.committed:
        return tree.root_vertex, tree.root_time
    path = ENGINE.path(tree.root_vertex, tree.committed[0].first_vertex)
    k = int(fraction * (len(path) - 1))
    t = tree.root_time
    for u, v in zip(path[:k], path[1 : k + 1]):
        t += CITY.edge_weight(u, v)
    return path[k], t


def survives(request, reach, children):
    """The screen's rule for one pickup position: the pickup, reached at
    ``reach``, meets its deadline, and a child takes the delay (or there
    is none: append at the end)."""
    o = request.origin
    return reach <= request.pickup_deadline + EPSILON + SCREEN_MARGIN and (
        not children
        or any(
            reach + ENGINE.distance(o, c.first_vertex) + c.internal_cost
            - c.arrivals[-1]
            <= c.delta + EPSILON + SCREEN_MARGIN
            for c in children
        )
    )


def node_position_survives(tree, request):
    """The rule over every node position, with no pruning."""
    o = request.origin
    return any(
        survives(
            request,
            node.arrivals[-1] + ENGINE.distance(node.last_vertex, o),
            node.children,
        )
        for top in tree.children
        for node in top.iter_nodes()
    )


def root_edge(tree, request, vertex):
    """The decision time at ``vertex`` past which the root position
    stops surviving the rule."""
    o = request.origin
    latest = max(
        c.delta + EPSILON + SCREEN_MARGIN + c.arrivals[-1] - c.internal_cost
        - ENGINE.distance(o, c.first_vertex)
        for c in tree.children
    )
    latest = min(latest, request.pickup_deadline + EPSILON + SCREEN_MARGIN)
    return latest - ENGINE.distance(vertex, o)


def test_pickup_screen_is_exact():
    """Deep trees (capacity 6) driven along their committed routes:
    slack and basic trees agree on every trial, and the slack tree's
    ``try_insert`` returns ``None`` without a node expansion exactly
    when the screen's rule rejects — which happens in the run.

    Where only the root position survives, the trial is repeated half a
    second either side of the decision time at which it stops
    surviving (only later than the vehicle's own time: an earlier one
    is not a place the vehicle can be), so the rule's threshold is held
    to within a second."""
    fired = []
    edges = []

    def probe(basic, slack, request, vertex, t, expect_screened):
        trial_b = basic.try_insert(request, vertex, t)
        trial_s = slack.try_insert(request, vertex, t)
        assert (trial_s is None and slack._expansions == 0) == expect_screened
        assert (trial_b is None) == (trial_s is None)
        return trial_b, trial_s

    @given(deep_streams())
    @settings(max_examples=40, deadline=None)
    def check(case):
        start, wait, eps, trips = case
        basic = KineticTree(ENGINE, start, capacity=6, mode="basic")
        slack = KineticTree(ENGINE, start, capacity=6, mode="slack")
        for rid, (o, d, passed, fraction) in enumerate(trips):
            vertex, t = decision_point(basic, passed, fraction)
            assert decision_point(slack, passed, fraction) == (vertex, t)
            request = TripRequest(rid, o, d, t, wait, eps, ENGINE.distance(o, d))
            missed = misses_pickup(request, t, ENGINE.distance(vertex, o))
            nodes_blocked = bool(slack.children) and not node_position_survives(
                slack, request
            )
            screened = (
                nodes_blocked
                and not missed
                and not survives(
                    request, t + ENGINE.distance(vertex, o), slack.children
                )
            )
            if nodes_blocked and not screened:
                edge = root_edge(slack, request, vertex)
                for shift in (-0.5, 0.5):
                    if edge + shift >= t:
                        edges.append(shift)
                        probe(basic, slack, request, vertex, edge + shift, shift > 0)
            trial_b, trial_s = probe(
                basic, slack, request, vertex, t, missed or screened
            )
            fired.append(screened)
            if trial_b is None:
                continue
            assert trial_s.best_cost == pytest.approx(trial_b.best_cost, rel=1e-9)
            basic.commit(trial_b)
            slack.commit(trial_s)
            assert {s for s, _ in basic.all_schedules()} == {
                s for s, _ in slack.all_schedules()
            }
            assert [n.stops for n in basic.committed] == [
                n.stops for n in slack.committed
            ]

    check()
    assert any(fired), "the pickup screen never fired"
    assert set(edges) == {-0.5, 0.5}, "the screen's threshold was never probed"
