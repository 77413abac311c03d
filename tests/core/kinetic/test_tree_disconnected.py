"""A request in another component of the road network is unservable.

An unreachable leg reads ``inf`` inside the tree and fails the same
deadline checks as a late one, so ``try_insert`` returns ``None`` and the
dispatcher rejects the request without raising.
"""

import pytest

from repro.core.kinetic.tree import KineticTree
from repro.core.matching import Dispatcher, KineticAgent
from repro.core.request import TripRequest
from repro.core.vehicle import Vehicle
from repro.roadnet.engine import DijkstraEngine
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.matrix import MatrixEngine


def two_lines() -> RoadNetwork:
    """0 - 1 - 2 - 3 and 4 - 5 - 6 - 7, no edge between them."""
    edges = [(i, i + 1, 30.0) for i in (0, 1, 2, 4, 5, 6)]
    return RoadNetwork(8, edges)


@pytest.fixture(params=[MatrixEngine, DijkstraEngine])
def engine(request):
    return request.param(two_lines())


def trip(engine, request_id, origin, destination) -> TripRequest:
    return TripRequest(
        request_id=request_id,
        origin=origin,
        destination=destination,
        request_time=0.0,
        max_wait=600.0,
        detour_epsilon=1.0,
        direct_cost=engine.distance(origin, destination),
    )


@pytest.mark.parametrize("theta", [None, 60.0])
@pytest.mark.parametrize("mode", ["basic", "slack"])
@pytest.mark.parametrize("committed", [False, True])
def test_try_insert_rejects_the_other_component(engine, committed, mode, theta):
    tree = KineticTree(engine, 0, capacity=4, mode=mode, hotspot_theta=theta)
    if committed:
        tree.commit(tree.try_insert(trip(engine, 0, 1, 3), 0, 0.0))
        assert tree.committed
    assert tree.try_insert(trip(engine, 1, 5, 7), 0, 0.0) is None


def test_submit_rejects_the_other_component(engine):
    agent = KineticAgent(Vehicle(0, start_vertex=0, capacity=4, seed=0), engine)
    dispatcher = Dispatcher(engine, [agent])
    served = dispatcher.submit(dispatcher.make_request(1, 3, 0.0, 600.0, 1.0), 0.0)
    assert served.assigned
    far = dispatcher.make_request(5, 7, 0.0, 600.0, 1.0)
    rejected = dispatcher.submit(far, 0.0)
    assert not rejected.assigned
    assert agent.tree.num_active_trips == 1
