"""MatrixEngine: precomputed APSP engine."""

import numpy as np
import pytest

from repro.exceptions import DisconnectedError, GraphError
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.matrix import MatrixEngine
from tests.roadnet.reference_dijkstra import reference_distance


def test_matches_dijkstra(small_city, city_engine, rng):
    for _ in range(30):
        s, e = rng.integers(0, small_city.num_vertices, 2)
        assert city_engine.distance(int(s), int(e)) == pytest.approx(
            reference_distance(small_city, int(s), int(e)), rel=1e-9
        )


def test_path_reconstruction_costs_match(small_city, city_engine, rng):
    for _ in range(20):
        s, e = rng.integers(0, small_city.num_vertices, 2)
        path = city_engine.path(int(s), int(e))
        assert path[0] == int(s) and path[-1] == int(e)
        cost = sum(
            small_city.edge_weight(u, v) for u, v in zip(path, path[1:])
        )
        assert cost == pytest.approx(city_engine.distance(int(s), int(e)), rel=1e-9)


def test_path_edges_exist(small_city, city_engine):
    path = city_engine.path(0, small_city.num_vertices - 1)
    for u, v in zip(path, path[1:]):
        assert small_city.has_edge(u, v)


def test_trivial_path(city_engine):
    assert city_engine.path(3, 3) == [3]


def test_distances_from_row(small_city, city_engine):
    row = city_engine.distances_from(0)
    assert row.shape == (small_city.num_vertices,)
    assert row[0] == 0.0


def test_vertices_within(city_engine):
    ball = city_engine.vertices_within(0, 30.0)
    assert 0 in ball
    full = city_engine.vertices_within(0, float("inf"))
    assert len(full) == city_engine.graph.num_vertices
    assert len(ball) < len(full)
    for v, d in ball.items():
        assert d <= 30.0
        assert city_engine.distance(0, v) == pytest.approx(d, rel=1e-6)


def test_disconnected_raises():
    g = RoadNetwork(4, [(0, 1, 1.0), (2, 3, 1.0)])
    engine = MatrixEngine(g)
    with pytest.raises(DisconnectedError):
        engine.distance(0, 2)
    with pytest.raises(DisconnectedError):
        engine.path(0, 3)


def test_size_guard():
    big = RoadNetwork(30_000, [(0, 1, 1.0)])
    with pytest.raises(GraphError):
        MatrixEngine(big)


def test_stats(city_engine):
    stats = city_engine.stats()
    assert stats["num_vertices"] == city_engine.graph.num_vertices
    assert stats["matrix_bytes"] > 0


def test_symmetry(city_engine, rng):
    for _ in range(10):
        s, e = rng.integers(0, city_engine.graph.num_vertices, 2)
        assert city_engine.distance(int(s), int(e)) == pytest.approx(
            city_engine.distance(int(e), int(s))
        )


def test_triangle_inequality(city_engine, rng):
    n = city_engine.graph.num_vertices
    for _ in range(30):
        a, b, c = (int(x) for x in rng.integers(0, n, 3))
        assert city_engine.distance(a, c) <= (
            city_engine.distance(a, b) + city_engine.distance(b, c) + 1e-9
        )
