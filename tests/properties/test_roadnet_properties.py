"""Property-based tests of the shortest-path substrate.

Random connected graphs are built from a random spanning tree plus random
extra edges, so every instance is connected by construction; random
graphs skip the spanning tree and are often disconnected.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DisconnectedError
from repro.roadnet.dijkstra import dijkstra_distance, dijkstra_path
from repro.roadnet.engine import DijkstraEngine
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.hub_labeling import HubLabels
from tests.roadnet.reference_dijkstra import reference_distance, reference_distances


@st.composite
def connected_graphs(draw, connected=True):
    n = draw(st.integers(min_value=2, max_value=14))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    edges = {}
    # Random spanning tree: attach vertex i to a random earlier vertex.
    for v in range(1, n if connected else 1):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.5, 20.0))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        edges.setdefault(key, float(rng.uniform(0.5, 20.0)))
    if not edges:
        edges[(0, 1)] = 1.0
    graph = RoadNetwork(n, [(u, v, w) for (u, v), w in edges.items()])
    return graph, rng


@given(st.one_of(connected_graphs(), connected_graphs(connected=False)))
@settings(max_examples=40, deadline=None)
def test_scipy_csr_equals_its_transpose(case):
    """Both arcs of every edge are stored at one weight — the
    precondition of ``shortest_path_rows`` searching ``directed=True``."""
    graph, _ = case
    csr = graph.to_scipy_csr()
    assert (csr != csr.T).nnz == 0


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_distance_symmetry(case):
    graph, rng = case
    s, e = (int(x) for x in rng.integers(0, graph.num_vertices, 2))
    assert dijkstra_distance(graph, s, e) == pytest.approx(
        dijkstra_distance(graph, e, s)
    )


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_triangle_inequality(case):
    graph, rng = case
    a, b, c = (int(x) for x in rng.integers(0, graph.num_vertices, 3))
    assert dijkstra_distance(graph, a, c) <= (
        dijkstra_distance(graph, a, b) + dijkstra_distance(graph, b, c) + 1e-9
    )


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_path_cost_equals_distance(case):
    graph, rng = case
    s, e = (int(x) for x in rng.integers(0, graph.num_vertices, 2))
    path = dijkstra_path(graph, s, e)
    cost = sum(graph.edge_weight(u, v) for u, v in zip(path, path[1:]))
    assert cost == pytest.approx(dijkstra_distance(graph, s, e))
    assert path[0] == s and path[-1] == e


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_path_never_repeats_vertices(case):
    graph, rng = case
    s, e = (int(x) for x in rng.integers(0, graph.num_vertices, 2))
    path = dijkstra_path(graph, s, e)
    assert len(path) == len(set(path))


@given(connected_graphs())
@settings(max_examples=30, deadline=None)
def test_hub_labels_exact(case):
    graph, rng = case
    labels = HubLabels(graph)
    for _ in range(5):
        s, e = (int(x) for x in rng.integers(0, graph.num_vertices, 2))
        assert labels.query(s, e) == pytest.approx(reference_distance(graph, s, e))


@given(st.one_of(connected_graphs(), connected_graphs(connected=False)))
@settings(max_examples=60, deadline=None)
def test_dijkstra_engine_matches_reference(case):
    """Every answer of the C engine is bit-equal to the pure-Python
    reference, disconnected pairs included, and every path is an edge
    walk whose summed cost is exactly the distance."""
    graph, _ = case
    engine = DijkstraEngine(graph)
    everyone = list(range(graph.num_vertices))
    for source in everyone:
        expected = reference_distances(graph, source)
        np.testing.assert_array_equal(engine.distances_from(source), expected)
        np.testing.assert_array_equal(engine.distance_many(source, everyone), expected)
        for target in everyone:
            if expected[target] == np.inf:
                with pytest.raises(DisconnectedError):
                    engine.distance(source, target)
                with pytest.raises(DisconnectedError):
                    engine.path(source, target)
                continue
            assert engine.distance(source, target) == expected[target]
            path = engine.path(source, target)
            assert path[0] == source and path[-1] == target
            cost = 0.0
            for u, v in zip(path, path[1:]):
                assert graph.has_edge(u, v)
                cost += graph.edge_weight(u, v)
            assert cost == expected[target]
