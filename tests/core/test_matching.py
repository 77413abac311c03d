"""Dispatcher and vehicle agents."""

import pytest

from repro.core.matching import Dispatcher, KineticAgent, RescheduleAgent
from repro.core.vehicle import Vehicle
from repro.algorithms.brute_force import BruteForce
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid_index import GridIndex


def make_agents(engine, kind="kinetic", count=3, capacity=4):
    agents = []
    for vid in range(count):
        vehicle = Vehicle(vid, start_vertex=vid * 7, capacity=capacity, seed=vid)
        if kind == "kinetic":
            agents.append(KineticAgent(vehicle, engine))
        else:
            agents.append(RescheduleAgent(vehicle, engine, BruteForce(engine)))
    return agents


@pytest.fixture(params=["kinetic", "reschedule"])
def agents(request, city_engine):
    return make_agents(city_engine, kind=request.param)


def test_make_request_stamps_direct_cost(city_engine, agents):
    dispatcher = Dispatcher(city_engine, agents)
    request = dispatcher.make_request(0, 9, 0.0, 600.0, 0.2)
    assert request is not None
    assert request.direct_cost == pytest.approx(city_engine.distance(0, 9))


def test_make_request_rejects_degenerate(city_engine, agents):
    dispatcher = Dispatcher(city_engine, agents)
    assert dispatcher.make_request(5, 5, 0.0, 600.0, 0.2) is None


def test_request_ids_increment(city_engine, agents):
    dispatcher = Dispatcher(city_engine, agents)
    r1 = dispatcher.make_request(0, 9, 0.0, 600.0, 0.2)
    r2 = dispatcher.make_request(1, 9, 0.0, 600.0, 0.2)
    assert r2.request_id == r1.request_id + 1


def test_submit_assigns_cheapest(city_engine, agents):
    dispatcher = Dispatcher(city_engine, agents)
    request = dispatcher.make_request(0, 20, 0.0, 600.0, 0.5)
    result = dispatcher.submit(request, 0.0)
    assert result.assigned
    # The winner's quote must be minimal across all agents' quotes.
    quotes = [
        a.quote(request, 0.0)
        for a in make_agents(city_engine, kind="kinetic")
    ]
    # (fresh agents identical to the fixture's initial state)
    min_cost = min(q.cost for q in quotes if q is not None)
    assert result.cost == pytest.approx(min_cost)


def test_submit_collects_art_timings(city_engine, agents):
    dispatcher = Dispatcher(city_engine, agents)
    request = dispatcher.make_request(0, 20, 0.0, 600.0, 0.5)
    result = dispatcher.submit(request, 0.0)
    # One ART sample per trial insertion actually made: the fleet screen
    # skips vehicles whose lower bound cannot beat the winner.
    assert 1 <= len(result.quote_timings) <= result.num_candidates
    assert result.num_candidates == len(agents)
    for active, seconds in result.quote_timings:
        assert active == 0
        assert seconds >= 0.0


def test_commit_updates_winner_state(city_engine, agents):
    dispatcher = Dispatcher(city_engine, agents)
    request = dispatcher.make_request(0, 20, 0.0, 600.0, 0.5)
    result = dispatcher.submit(request, 0.0)
    winner = result.winner
    assert winner.num_active_trips == 1
    assert winner.vehicle.busy
    losers = [a for a in agents if a is not winner]
    assert all(a.num_active_trips == 0 for a in losers)
    assert all(not a.vehicle.busy for a in losers)


def test_agent_executes_committed_stops(city_engine, agents):
    dispatcher = Dispatcher(city_engine, agents)
    request = dispatcher.make_request(0, 20, 0.0, 600.0, 0.5)
    result = dispatcher.submit(request, 0.0)
    agent = result.winner
    arrival, stops = agent.next_stop()
    serviced = agent.arrive_next()
    assert serviced[0][1].is_pickup
    assert agent.load == 1
    serviced = agent.arrive_next()
    assert serviced[-1][1].is_dropoff
    assert agent.load == 0
    assert agent.next_stop() is None


def test_route_waypoints_follow_edges(city_engine, agents):
    dispatcher = Dispatcher(city_engine, agents)
    request = dispatcher.make_request(0, 20, 0.0, 600.0, 0.5)
    result = dispatcher.submit(request, 0.0)
    waypoints = result.winner.vehicle.waypoints
    graph = city_engine.graph
    for (t1, v1), (t2, v2) in zip(waypoints, waypoints[1:]):
        assert graph.has_edge(v1, v2)
        assert t2 - t1 == pytest.approx(graph.edge_weight(v1, v2), rel=1e-9)


def test_infeasible_request_rejected(city_engine, agents):
    dispatcher = Dispatcher(city_engine, agents)
    request = dispatcher.make_request(99, 0, 0.0, 0.5, 0.2)  # 0.5s wait
    result = dispatcher.submit(request, 0.0)
    assert not result.assigned
    assert result.cost == float("inf")


def test_candidate_filter_uses_grid_index(city_engine):
    agents = make_agents(city_engine, count=4)
    coords = city_engine.graph.coords
    bounds = BoundingBox(
        float(coords[:, 0].min()),
        float(coords[:, 1].min()),
        float(coords[:, 0].max()),
        float(coords[:, 1].max()),
    )
    index = GridIndex(bounds, cell_meters=200)
    # Register only vehicles 0 and 1.
    for agent in agents[:2]:
        x, y = coords[agent.vehicle.waypoints[0][1]]
        index.update(agent.vehicle.vehicle_id, float(x), float(y))
    dispatcher = Dispatcher(city_engine, agents, grid_index=index, staleness_seconds=0)
    request = dispatcher.make_request(0, 20, 0.0, 600.0, 0.5)
    candidates = dispatcher.candidates(request)
    assert {a.vehicle.vehicle_id for a in candidates} <= {0, 1}


def test_candidate_filter_radius(city_engine):
    agents = make_agents(city_engine, count=2)
    coords = city_engine.graph.coords
    bounds = BoundingBox(
        float(coords[:, 0].min()),
        float(coords[:, 1].min()),
        float(coords[:, 0].max()),
        float(coords[:, 1].max()),
    )
    index = GridIndex(bounds, cell_meters=100)
    # Vehicle 0 next to the pickup, vehicle 1 registered far away
    # (farther than the wait radius can reach).
    x0, y0 = coords[0]
    index.update(0, float(x0), float(y0))
    index.update(1, float(x0) + 9e5, float(y0) + 9e5)
    dispatcher = Dispatcher(city_engine, agents, grid_index=index, staleness_seconds=0)
    request = dispatcher.make_request(0, 20, 0.0, 60.0, 0.5)  # 1 min wait
    candidates = dispatcher.candidates(request)
    assert [a.vehicle.vehicle_id for a in candidates] == [0]
