"""Contraction hierarchies: exactness and structure."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.exceptions import DisconnectedError
from repro.roadnet.contraction import CHEngine, ContractionHierarchy
from repro.roadnet.graph import RoadNetwork
from tests.properties.test_roadnet_properties import connected_graphs
from tests.roadnet.reference_dijkstra import reference_distance


@pytest.fixture(scope="module")
def hierarchy(small_city):
    return ContractionHierarchy(small_city)


def test_exact_on_city(small_city, hierarchy, rng):
    for _ in range(60):
        s, e = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
        assert hierarchy.query(s, e) == pytest.approx(
            reference_distance(small_city, s, e), rel=1e-9
        )


def test_same_vertex(hierarchy):
    assert hierarchy.query(3, 3) == 0.0


def test_rank_is_permutation(small_city, hierarchy):
    assert sorted(hierarchy.rank) == list(range(small_city.num_vertices))


def test_shortcuts_bounded(small_city, hierarchy):
    # Street-like graphs contract with few shortcuts; quadratic blowup
    # would indicate a broken ordering or witness search.
    assert hierarchy.num_shortcuts < 4 * small_city.num_edges


def test_disconnected():
    g = RoadNetwork(4, [(0, 1, 1.0), (2, 3, 1.0)])
    ch = ContractionHierarchy(g)
    with pytest.raises(DisconnectedError):
        ch.query(0, 2)
    assert ch.query(2, 3) == 1.0


def test_line_graph(line_graph):
    ch = ContractionHierarchy(line_graph)
    assert ch.query(0, 4) == 4.0


def test_square_with_shortcut_edge(square_graph):
    ch = ContractionHierarchy(square_graph)
    assert ch.query(0, 3) == pytest.approx(2.0)


@given(connected_graphs())
@settings(max_examples=30, deadline=None)
def test_exact_on_random_graphs(case):
    graph, rng = case
    ch = ContractionHierarchy(graph)
    for _ in range(5):
        s, e = (int(x) for x in rng.integers(0, graph.num_vertices, 2))
        assert ch.query(s, e) == pytest.approx(
            reference_distance(graph, s, e), rel=1e-9
        )


def test_engine_api(small_city, rng):
    engine = CHEngine(small_city)
    s, e = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
    assert engine.distance(s, e) == pytest.approx(
        reference_distance(small_city, s, e)
    )
    path = engine.path(s, e)
    assert path[0] == s and path[-1] == e
    assert engine.distances_from(s)[s] == 0.0
    assert s in engine.vertices_within(s, 50.0)
    assert engine.stats()["num_vertices"] == small_city.num_vertices


def test_tiny_witness_budget_still_exact(small_city, rng):
    """A starved witness search only adds redundant shortcuts — queries
    must stay exact."""
    ch = ContractionHierarchy(small_city, witness_budget=1)
    for _ in range(25):
        s, e = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
        assert ch.query(s, e) == pytest.approx(
            reference_distance(small_city, s, e), rel=1e-9
        )
