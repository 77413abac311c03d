"""Shared test fixtures: small deterministic cities and request factories."""

import numpy as np
import pytest

from repro.core.request import TripRequest
from repro.roadnet.engine import DijkstraEngine
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.matrix import MatrixEngine


@pytest.fixture(scope="session")
def line_graph() -> RoadNetwork:
    """0 - 1 - 2 - 3 - 4 with unit weights."""
    return RoadNetwork(5, [(i, i + 1, 1.0) for i in range(4)])


@pytest.fixture(scope="session")
def square_graph() -> RoadNetwork:
    """A 2x2 square with one diagonal:  0-1 / 0-2 / 1-3 / 2-3 / 0-3(2.5)."""
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (0, 3, 2.5)]
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return RoadNetwork(4, edges, coords=coords)


@pytest.fixture(scope="session")
def small_city() -> RoadNetwork:
    return grid_city(10, 10, seed=0)


@pytest.fixture(scope="session")
def city_engine(small_city) -> MatrixEngine:
    return MatrixEngine(small_city)


@pytest.fixture(scope="session")
def dijkstra_engine(small_city) -> DijkstraEngine:
    return DijkstraEngine(small_city)


class RequestFactory:
    """Stamps consistent TripRequests against an engine."""

    def __init__(self, engine):
        self.engine = engine
        self.next_id = 0

    def __call__(
        self,
        origin: int,
        destination: int,
        request_time: float = 0.0,
        max_wait: float = 600.0,
        epsilon: float = 0.5,
    ) -> TripRequest:
        request = TripRequest(
            request_id=self.next_id,
            origin=origin,
            destination=destination,
            request_time=request_time,
            max_wait=max_wait,
            detour_epsilon=epsilon,
            direct_cost=self.engine.distance(origin, destination),
        )
        self.next_id += 1
        return request


@pytest.fixture
def make_request(city_engine) -> RequestFactory:
    return RequestFactory(city_engine)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
