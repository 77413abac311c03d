"""Dijkstra shortest-path functions (one csgraph row per source)."""

import numpy as np
import pytest

from repro.exceptions import DisconnectedError
from repro.roadnet.dijkstra import (
    dijkstra_distance,
    dijkstra_path,
    single_source_row,
    vertices_within,
)
from repro.roadnet.graph import RoadNetwork
from tests.roadnet.reference_dijkstra import reference_distances


def path_cost(graph, path):
    return sum(graph.edge_weight(u, v) for u, v in zip(path, path[1:]))


def test_line_distances(line_graph):
    assert dijkstra_distance(line_graph, 0, 4) == 4.0
    assert dijkstra_distance(line_graph, 4, 0) == 4.0
    assert dijkstra_distance(line_graph, 2, 2) == 0.0


def test_square_shortcut(square_graph):
    # Direct 0-3 edge costs 2.5; going around costs 2.0.
    assert dijkstra_distance(square_graph, 0, 3) == 2.0


def test_path_is_shortest(square_graph):
    path = dijkstra_path(square_graph, 0, 3)
    assert path[0] == 0 and path[-1] == 3
    assert path_cost(square_graph, path) == dijkstra_distance(square_graph, 0, 3)


def test_path_trivial(square_graph):
    assert dijkstra_path(square_graph, 2, 2) == [2]


def test_disconnected_raises():
    g = RoadNetwork(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedError):
        dijkstra_distance(g, 0, 3)
    with pytest.raises(DisconnectedError):
        dijkstra_path(g, 0, 2)


def test_single_source_distances(line_graph):
    dist, pred = single_source_row(line_graph, 0)
    assert dist.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert pred[1:].tolist() == [0, 1, 2, 3] and pred[0] < 0


def test_single_source_cutoff(line_graph):
    assert set(vertices_within(line_graph, 0, 2.0)) == {0, 1, 2}


def test_single_source_array(line_graph):
    arr = single_source_row(line_graph, 1)[0]
    assert arr.dtype == np.float64
    assert arr[4] == 3.0
    assert arr[0] == 1.0


def test_vertices_within(line_graph):
    ball = vertices_within(line_graph, 2, 1.0)
    assert set(ball) == {1, 2, 3}


def test_vertices_within_zero_radius(line_graph):
    assert set(vertices_within(line_graph, 2, 0.0)) == {2}


def test_matches_scipy_on_random_city(small_city):
    """The csgraph row is bit-equal to the pure-Python reference."""
    for source in (0, 17, 99):
        np.testing.assert_array_equal(
            single_source_row(small_city, source)[0],
            reference_distances(small_city, source),
        )
