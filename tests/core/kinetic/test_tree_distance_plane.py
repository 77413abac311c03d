"""The kinetic tree reads one plane: the scalar ``d(u, v)``.

Every tree operation fetches its legs from ``engine.distance`` one pair
at a time (Algorithm 1); the only batched fan-out is the dispatcher's
fleet screen, one ``distance_many`` call per submitted request.
"""

from collections import Counter

from repro.core.kinetic.tree import KineticTree
from repro.core.matching import Dispatcher, KineticAgent
from repro.core.problem import SchedulingProblem
from repro.core.request import TripRequest
from repro.core.vehicle import Vehicle
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.matrix import MatrixEngine

LEAVES = 9
ARM = 10.0


class SpyEngine:
    """Delegates to a real engine and counts every query by name."""

    def __init__(self, inner):
        self.inner = inner
        self.graph = inner.graph
        self.kind = inner.kind
        self.calls: Counter = Counter()

    def distance(self, source, target):
        self.calls["distance"] += 1
        return self.inner.distance(source, target)

    def distance_many(self, source, targets):
        self.calls["distance_many"] += 1
        return self.inner.distance_many(source, targets)

    def path(self, source, target):
        self.calls["path"] += 1
        return self.inner.path(source, target)


def star_problem(engine) -> SchedulingProblem:
    """Nine riders on board at the hub of a star, rider ``k`` bound for
    leaf ``k`` and due there by ``20 k + 20``: every leaf is a valid
    first stop (so the root has nine children), and rider ``k`` may sit
    at most ``k + 1``-th in the visiting order (256 schedules)."""
    onboard = {}
    for k in range(1, LEAVES + 1):
        rider = TripRequest(
            request_id=k,
            origin=0,
            destination=k,
            request_time=0.0,
            max_wait=60.0,
            detour_epsilon=2.0 * k + 1.0,
            direct_cost=engine.distance(0, k),
        )
        onboard[rider] = 0.0
    return SchedulingProblem(
        start_vertex=0,
        start_time=0.0,
        onboard=onboard,
        pending=(),
        new_request=None,
        capacity=LEAVES + 1,
    )


def star_engine() -> SpyEngine:
    edges = [(0, leaf, ARM) for leaf in range(1, LEAVES + 1)]
    return SpyEngine(MatrixEngine(RoadNetwork(LEAVES + 1, edges)))


def test_tree_operations_read_only_scalar_distances():
    engine = star_engine()
    problem = star_problem(engine)
    tree = KineticTree.from_problem(engine, problem)
    assert tree is not None
    assert len(tree.children) > 8
    tree.eager_invalidation = True

    newcomer = TripRequest(
        request_id=100,
        origin=1,
        destination=2,
        request_time=0.0,
        max_wait=1000.0,
        detour_epsilon=20.0,
        direct_cost=engine.distance(1, 2),
    )
    engine.calls.clear()
    trial = tree.try_insert(newcomer, 0, 0.0)
    assert trial is not None
    assert len(tree.reroot(0, 0.0).children) > 8
    tree.prune_stale(0, 0.0)
    assert len(tree.children) > 8
    tree.commit(trial)
    tree.advance()
    tree.validate()
    assert engine.calls["distance"] > 0
    assert set(engine.calls) == {"distance"}, engine.calls

    engine.calls.clear()
    assert KineticTree.from_problem(engine, problem) is not None
    assert set(engine.calls) == {"distance"}, engine.calls


def test_submit_makes_one_fleet_fan_out_per_request(small_city):
    engine = SpyEngine(MatrixEngine(small_city))
    agents = [
        KineticAgent(Vehicle(vid, start_vertex=vid * 9, capacity=4, seed=vid), engine)
        for vid in range(10)
    ]
    dispatcher = Dispatcher(engine, agents)
    served = 0
    for origin, destination in [(0, 55), (12, 87), (40, 3), (71, 29), (5, 96)]:
        request = dispatcher.make_request(origin, destination, 0.0, 600.0, 1.0)
        engine.calls.clear()
        result = dispatcher.submit(request, 0.0)
        served += result.assigned
        assert engine.calls["distance_many"] == 1, engine.calls
        assert engine.calls["distance"] > 0
    assert served > 0
