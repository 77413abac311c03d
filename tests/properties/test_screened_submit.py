"""Determinism contract 11: screened submit ≡ quote-every-candidate submit.

:meth:`Dispatcher.submit` trial-inserts only the candidates whose lower
bound ``d(v, o) + d(o, e)`` could still win. The oracle below is the
loop it replaced — quote every candidate in candidate order, keep the
cheapest, break ties within 1e-9 toward the lowest vehicle id — and it
lives here, not in ``src/``. Two identical fleets receive the same
request stream, one through each loop; every request must go to the
same vehicle at a bit-identical cost, and every quote the oracle makes
must respect the screen's bound. On both engines a distance is a pure
function of its endpoints, so the query stream the screen changes
cannot show in a cost.
"""

from dataclasses import dataclass
from math import inf

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms.brute_force import BruteForce
from repro.core.matching import (
    SCREEN_MARGIN,
    Dispatcher,
    KineticAgent,
    RescheduleAgent,
)
from repro.core.request import TripRequest
from repro.core.vehicle import Vehicle
from repro.roadnet.engine import DijkstraEngine
from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine

CITY = grid_city(8, 8, seed=5)
MATRIX = MatrixEngine(CITY)
N = CITY.num_vertices

AGENT_KINDS = ("basic", "slack", "hotspot", "schedule_cap", "brute_force")


@dataclass(frozen=True)
class Scenario:
    engine: str
    kind: str
    capacity: int | None
    starts: tuple[int, ...]
    reverse: bool
    requests: tuple[tuple[float, int, int, float, float], ...]


@st.composite
def scenarios(draw):
    """A fleet of 2-6 vehicles and 2-6 requests with non-decreasing
    request times. With ``shared`` starts every vehicle begins on one of
    two vertices, so idle vehicles quote exactly equal costs."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    shared = draw(st.booleans())
    pool = rng.integers(0, N, 2) if shared else np.arange(N)
    starts = tuple(
        int(rng.choice(pool)) for _ in range(draw(st.integers(2, 6)))
    )
    step = draw(st.sampled_from([0.0, 10.0]))
    requests = []
    while len(requests) < draw(st.integers(2, 6)):
        o, d = (int(x) for x in rng.integers(0, N, 2))
        if o == d:
            continue
        wait = float(rng.choice([60.0, 150.0, 600.0]))
        eps = float(rng.choice([0.2, 1.0]))
        requests.append((len(requests) * step, o, d, wait, eps))
    return Scenario(
        engine=draw(st.sampled_from(["matrix", "dijkstra"])),
        kind=draw(st.sampled_from(AGENT_KINDS)),
        capacity=draw(st.sampled_from([2, 4, None])),
        starts=starts,
        reverse=draw(st.booleans()),
        requests=tuple(requests),
    )


def make_fleet(scenario, engine):
    agents = []
    for vid, start in enumerate(scenario.starts):
        vehicle = Vehicle(vid, start_vertex=start, capacity=scenario.capacity)
        if scenario.kind == "brute_force":
            agents.append(RescheduleAgent(vehicle, engine, BruteForce(engine)))
            continue
        agents.append(
            KineticAgent(
                vehicle,
                engine,
                mode="basic" if scenario.kind == "basic" else "slack",
                hotspot_theta=30.0 if scenario.kind == "hotspot" else None,
                schedule_cap=2 if scenario.kind == "schedule_cap" else None,
            )
        )
    return agents[::-1] if scenario.reverse else agents


def quote_everyone(engine, agents, request, now):
    """The oracle: quote every candidate, commit the cheapest. Also
    checks each quote against the screen's lower bound."""
    best = None
    for agent in agents:
        quote = agent.quote(request, now)
        if quote is None:
            continue
        bound = (
            engine.distance(request.origin, quote.decision_vertex)
            + request.direct_cost
        )
        assert quote.cost >= bound - SCREEN_MARGIN, (quote.cost, bound)
        if (
            best is None
            or quote.cost < best.cost - 1e-9
            or (
                abs(quote.cost - best.cost) <= 1e-9
                and agent.vehicle.vehicle_id < best.agent.vehicle.vehicle_id
            )
        ):
            best = quote
    if best is None:
        return None, inf
    best.agent.commit(best)
    return best.agent.vehicle.vehicle_id, best.cost


@given(scenarios())
@settings(max_examples=80, deadline=None)
def test_screened_submit_picks_the_quote_everyone_winner(scenario):
    if scenario.engine == "matrix":
        engine = reference_engine = MATRIX
    else:
        engine, reference_engine = DijkstraEngine(CITY), DijkstraEngine(CITY)
    dispatcher = Dispatcher(engine, make_fleet(scenario, engine))
    reference = make_fleet(scenario, reference_engine)
    for rid, (now, o, d, wait, eps) in enumerate(scenario.requests):
        request = TripRequest(rid, o, d, now, wait, eps, MATRIX.distance(o, d))
        result = dispatcher.submit(request, now)
        winner, cost = quote_everyone(reference_engine, reference, request, now)
        got = result.winner.vehicle.vehicle_id if result.assigned else None
        assert got == winner
        assert result.cost == cost
        assert len(result.quote_timings) <= result.num_candidates
