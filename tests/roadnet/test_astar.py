"""A* with Euclidean and landmark (ALT) heuristics."""

import numpy as np
import pytest

from repro.exceptions import DisconnectedError, GraphError
from repro.roadnet.astar import (
    AStarEngine,
    EuclideanHeuristic,
    LandmarkHeuristic,
    astar_distance,
    astar_expansions,
    astar_path,
)
from repro.roadnet.graph import RoadNetwork
from tests.roadnet.reference_dijkstra import reference_distance


@pytest.fixture(scope="module")
def euclidean(small_city):
    return EuclideanHeuristic(small_city)


@pytest.fixture(scope="module")
def landmarks(small_city):
    return LandmarkHeuristic(small_city, num_landmarks=6)


@pytest.mark.parametrize("heuristic_name", ["euclidean", "landmarks"])
def test_exact_distances(small_city, euclidean, landmarks, heuristic_name, rng):
    heuristic = euclidean if heuristic_name == "euclidean" else landmarks
    for _ in range(40):
        s, e = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
        assert astar_distance(small_city, s, e, heuristic) == pytest.approx(
            reference_distance(small_city, s, e), rel=1e-9
        )


def test_paths_are_shortest(small_city, landmarks, rng):
    for _ in range(15):
        s, e = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
        path = astar_path(small_city, s, e, landmarks)
        assert path[0] == s and path[-1] == e
        cost = sum(
            small_city.edge_weight(u, v) for u, v in zip(path, path[1:])
        )
        assert cost == pytest.approx(reference_distance(small_city, s, e))


def test_euclidean_heuristic_admissible(small_city, euclidean, rng):
    """h(v) <= d(v, target) for all sampled pairs."""
    for _ in range(20):
        v, target = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
        h = euclidean.bind(target)
        assert h(v) <= reference_distance(small_city, v, target) + 1e-9


def test_landmark_heuristic_admissible(small_city, landmarks, rng):
    for _ in range(20):
        v, target = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
        h = landmarks.bind(target)
        assert h(v) <= reference_distance(small_city, v, target) + 1e-9


def test_landmarks_are_spread_out(small_city, landmarks):
    assert len(set(landmarks.landmarks)) == len(landmarks.landmarks)
    assert len(landmarks.landmarks) == 6


def test_alt_expands_fewer_than_dijkstra(small_city, landmarks):
    """Goal direction must pay off on long queries (the point of A*)."""
    corner_a, corner_b = 0, small_city.num_vertices - 1

    class NullHeuristic:
        def bind(self, target):
            return lambda v: 0.0

    blind = astar_expansions(small_city, corner_a, corner_b, NullHeuristic())
    directed = astar_expansions(small_city, corner_a, corner_b, landmarks)
    assert directed < blind


def test_euclidean_requires_coords(line_graph):
    with pytest.raises(GraphError):
        EuclideanHeuristic(line_graph)


def test_alpha_in_unit_range(euclidean):
    assert 0.0 < euclidean.alpha <= 1.0


def test_landmark_validation(small_city):
    with pytest.raises(ValueError):
        LandmarkHeuristic(small_city, num_landmarks=0)


def test_disconnected():
    g = RoadNetwork(4, [(0, 1, 1.0), (2, 3, 1.0)])
    heuristic = LandmarkHeuristic(g, num_landmarks=2)
    with pytest.raises(DisconnectedError):
        astar_distance(g, 0, 3, heuristic)


def test_same_vertex(small_city, landmarks):
    assert astar_distance(small_city, 5, 5, landmarks) == 0.0
    assert astar_path(small_city, 5, 5, landmarks) == [5]


def test_engine_api(small_city, rng):
    for heuristic in ("landmark", "euclidean"):
        engine = AStarEngine(small_city, heuristic=heuristic)
        s, e = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
        assert engine.distance(s, e) == pytest.approx(
            reference_distance(small_city, s, e)
        )
        path = engine.path(s, e)
        assert path[0] == s and path[-1] == e
        assert engine.distances_from(s)[s] == 0.0
        assert s in engine.vertices_within(s, 100.0)


def test_engine_unknown_heuristic(small_city):
    with pytest.raises(ValueError):
        AStarEngine(small_city, heuristic="psychic")
