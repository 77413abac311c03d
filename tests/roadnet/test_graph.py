"""RoadNetwork construction and accessors."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.roadnet.graph import RoadNetwork, build_from_arrays


def test_basic_construction(line_graph):
    assert line_graph.num_vertices == 5
    assert line_graph.num_edges == 4


def test_neighbors_sorted(square_graph):
    assert list(square_graph.neighbors(0)) == [1, 2, 3]
    assert list(square_graph.neighbors(3)) == [0, 1, 2]


def test_neighbor_weights_aligned(square_graph):
    weights = dict(zip(square_graph.neighbors(0), square_graph.neighbor_weights(0)))
    assert weights[1] == 1.0
    assert weights[3] == 2.5


def test_degree(square_graph):
    assert square_graph.degree(0) == 3
    assert square_graph.degree(1) == 2


def test_edge_weight(square_graph):
    assert square_graph.edge_weight(0, 3) == 2.5
    assert square_graph.edge_weight(3, 0) == 2.5


def test_edge_weight_missing_raises(square_graph):
    with pytest.raises(GraphError):
        square_graph.edge_weight(1, 2)


def test_path_weights_match_edge_weight(small_city, city_engine):
    for source, target in [(0, 99), (37, 4), (58, 58)]:
        path = city_engine.path(source, target)
        expected = [small_city.edge_weight(u, v) for u, v in zip(path, path[1:])]
        assert small_city.path_weights(path) == expected


@pytest.mark.parametrize("path", [[0, 3, 1, 2], [3, 0, 4], [-1, 0], [3, 4]])
def test_path_weights_missing_edge_raises(square_graph, path):
    with pytest.raises(GraphError):
        square_graph.path_weights(path)


def test_has_edge(square_graph):
    assert square_graph.has_edge(0, 1)
    assert not square_graph.has_edge(1, 2)


def test_parallel_edges_keep_minimum():
    g = RoadNetwork(2, [(0, 1, 5.0), (1, 0, 3.0), (0, 1, 4.0)])
    assert g.num_edges == 1
    assert g.edge_weight(0, 1) == 3.0


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        RoadNetwork(2, [(0, 0, 1.0)])


def test_nonpositive_weight_rejected():
    with pytest.raises(GraphError):
        RoadNetwork(2, [(0, 1, 0.0)])
    with pytest.raises(GraphError):
        RoadNetwork(2, [(0, 1, -2.0)])
    with pytest.raises(GraphError):
        RoadNetwork(2, [(0, 1, float("nan"))])


def test_unknown_vertex_rejected():
    with pytest.raises(GraphError):
        RoadNetwork(2, [(0, 2, 1.0)])


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        RoadNetwork(0, [])


def test_coords_shape_validated():
    with pytest.raises(GraphError):
        RoadNetwork(3, [(0, 1, 1.0)], coords=np.zeros((2, 2)))


def test_iter_edges_each_once(square_graph):
    edges = list(square_graph.iter_edges())
    assert len(edges) == square_graph.num_edges
    assert all(u < v for u, v, _ in edges)


def test_validate_vertex(square_graph):
    assert square_graph.validate_vertex(2) == 2
    with pytest.raises(GraphError):
        square_graph.validate_vertex(7)
    with pytest.raises(GraphError):
        square_graph.validate_vertex(-1)


def test_to_scipy_csr_roundtrip(square_graph):
    mat = square_graph.to_scipy_csr()
    assert mat.shape == (4, 4)
    assert mat[0, 3] == 2.5
    assert mat[3, 0] == 2.5


def test_nearest_vertex(square_graph):
    assert square_graph.nearest_vertex(0.1, 0.05) == 0
    assert square_graph.nearest_vertex(0.9, 1.2) == 3


def test_nearest_vertex_requires_coords(line_graph):
    with pytest.raises(GraphError):
        line_graph.nearest_vertex(0.0, 0.0)


def test_euclidean(square_graph):
    assert square_graph.euclidean(0, 3) == pytest.approx(np.sqrt(2))


def test_is_connected(square_graph, line_graph):
    assert square_graph.is_connected()
    assert line_graph.is_connected()


def test_largest_component():
    # Two components: a triangle (0,1,2) and an edge (3,4).
    g = RoadNetwork(
        5,
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0)],
        coords=np.arange(10, dtype=float).reshape(5, 2),
    )
    assert not g.is_connected()
    largest = g.largest_component()
    assert largest.num_vertices == 3
    assert largest.num_edges == 3
    assert largest.coords is not None and largest.coords.shape == (3, 2)


def test_build_from_arrays():
    g = build_from_arrays(3, [0, 1], [1, 2], [1.0, 2.0])
    assert g.num_edges == 2
    assert g.edge_weight(1, 2) == 2.0


def test_repr(square_graph):
    assert "RoadNetwork" in repr(square_graph)
