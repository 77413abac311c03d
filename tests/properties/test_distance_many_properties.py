"""Property tests of the batched distance plane.

For every engine kind, ``distance_many(s, targets)`` must equal the
elementwise scalar ``distance(s, t)`` on randomized small graphs —
including *disconnected* graphs (the batched plane reports ``inf`` where
the scalar plane raises :class:`~repro.exceptions.DisconnectedError`) and
empty target lists. Repeat calls must agree too (the Dijkstra engine's
row cache and the pair caches may answer the second call).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DisconnectedError
from repro.roadnet.engine import make_engine
from repro.roadnet.graph import RoadNetwork

#: All concrete engine kinds (everything ``make_engine`` accepts except
#: the ``auto`` alias).
KINDS = ("matrix", "dijkstra", "hub_label", "astar")


@st.composite
def random_graphs(draw):
    """Small random graphs, possibly disconnected (no spanning tree)."""
    n = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    num_edges = draw(st.integers(min_value=1, max_value=2 * n))
    edges = {}
    for _ in range(num_edges):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        edges.setdefault(key, float(rng.uniform(0.5, 20.0)))
    if not edges:
        edges[(0, 1)] = 1.0
    graph = RoadNetwork(n, [(u, v, w) for (u, v), w in edges.items()])
    return graph, rng


def scalar_reference(engine, source, targets):
    """Elementwise scalar distances with inf for unreachable pairs."""
    out = np.empty(len(targets))
    for i, target in enumerate(targets):
        try:
            out[i] = engine.distance(source, int(target))
        except DisconnectedError:
            out[i] = np.inf
    return out


@pytest.mark.parametrize("kind", KINDS)
@given(case=random_graphs())
@settings(max_examples=20, deadline=None)
def test_distance_many_matches_scalar(kind, case):
    graph, rng = case
    engine = make_engine(graph, kind)
    source = int(rng.integers(0, graph.num_vertices))
    targets = rng.integers(0, graph.num_vertices, size=7)
    expected = scalar_reference(engine, source, targets)

    got = engine.distance_many(source, targets)
    assert got.shape == (len(targets),)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(np.isinf(got), np.isinf(expected))

    # Second call: cached rows/pairs must answer identically.
    again = engine.distance_many(source, targets)
    np.testing.assert_array_equal(again, got)


@pytest.mark.parametrize("kind", KINDS)
def test_distance_many_empty_targets(kind, small_city):
    engine = make_engine(small_city, kind)
    out = engine.distance_many(0, [])
    assert out.shape == (0,)
    assert out.dtype == np.float64


@pytest.mark.parametrize("kind", KINDS)
def test_distance_many_source_in_targets(kind, small_city):
    engine = make_engine(small_city, kind)
    out = engine.distance_many(5, [5, 6, 5])
    assert out[0] == 0.0 and out[2] == 0.0
    assert out[1] == engine.distance(5, 6)
