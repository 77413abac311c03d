"""DijkstraEngine's row LRU and the engine factory."""

import pytest

from repro.roadnet.engine import DijkstraEngine, ShortestPathEngine, make_engine
from repro.roadnet.hub_labeling import HubLabelEngine
from repro.roadnet.matrix import MatrixEngine
from tests.roadnet.reference_dijkstra import reference_distance


def path_cost(graph, path):
    total = 0.0
    for u, v in zip(path, path[1:]):
        total += graph.edge_weight(u, v)
    return total


def test_distance_cached(small_city):
    engine = DijkstraEngine(small_city)
    d1 = engine.distance(0, 42)
    hits_before = engine.rows.hits
    d2 = engine.distance(0, 42)
    assert d1 == d2
    assert engine.rows.hits == hits_before + 1


def test_path_cached_and_reversed(small_city):
    # Each direction reads its own source's row: both are shortest paths
    # of equal cost (not necessarily each other's reversal).
    engine = DijkstraEngine(small_city)
    forward = engine.path(0, 30)
    backward = engine.path(30, 0)
    assert forward[0] == backward[-1] == 0 and forward[-1] == backward[0] == 30
    assert path_cost(small_city, forward) == pytest.approx(
        path_cost(small_city, backward), rel=1e-12
    )
    assert path_cost(small_city, forward) == engine.distance(0, 30)
    assert path_cost(small_city, backward) == engine.distance(30, 0)


def test_path_populates_distance_cache(small_city):
    # A path sweeps its source's row; the distance is then a row hit.
    engine = DijkstraEngine(small_city)
    path = engine.path(0, 25)
    hits_before = engine.rows.hits
    assert engine.distance(0, 25) == path_cost(small_city, path)
    assert engine.rows.hits == hits_before + 1
    assert engine.distance(0, 25) == reference_distance(small_city, 0, 25)


def test_path_result_isolated(small_city):
    engine = DijkstraEngine(small_city)
    p1 = engine.path(0, 10)
    p1.append(999)  # mutate the returned list
    assert engine.path(0, 10)[-1] != 999


def test_same_vertex_shortcuts(small_city):
    engine = DijkstraEngine(small_city)
    assert engine.distance(5, 5) == 0.0
    assert engine.path(5, 5) == [5]


def test_vertices_within(small_city):
    engine = DijkstraEngine(small_city)
    ball = engine.vertices_within(0, 45.0)
    for v, d in ball.items():
        assert d <= 45.0


def test_distances_from(small_city):
    engine = DijkstraEngine(small_city)
    row = engine.distances_from(0)
    assert row[0] == 0.0
    assert len(row) == small_city.num_vertices
    with pytest.raises(ValueError):
        row[1] = 0.0  # the cached row is shared, hence read-only


def test_stats_exposed(small_city):
    engine = DijkstraEngine(small_city)
    engine.distance(0, 1)
    assert "row_hit_rate" in engine.stats()


def test_factory_kinds(small_city):
    assert isinstance(make_engine(small_city, "matrix"), MatrixEngine)
    assert isinstance(make_engine(small_city, "dijkstra"), DijkstraEngine)
    assert isinstance(make_engine(small_city, "hub_label"), HubLabelEngine)


def test_factory_auto_small(small_city):
    assert isinstance(make_engine(small_city, "auto"), MatrixEngine)


def test_factory_unknown(small_city):
    with pytest.raises(ValueError):
        make_engine(small_city, "quantum")


def test_engines_satisfy_protocol(small_city):
    for kind in ("matrix", "dijkstra", "hub_label"):
        assert isinstance(make_engine(small_city, kind), ShortestPathEngine)


def test_all_engines_agree(small_city, rng):
    engines = [make_engine(small_city, k) for k in ("matrix", "dijkstra", "hub_label")]
    for _ in range(20):
        s, e = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
        values = {round(engine.distance(s, e), 6) for engine in engines}
        assert len(values) == 1, f"engines disagree on d({s},{e}): {values}"
