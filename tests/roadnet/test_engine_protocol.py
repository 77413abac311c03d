"""Protocol conformance: every engine kind satisfies ShortestPathEngine
and behaves identically on the protocol surface."""

import numpy as np
import pytest

from repro.roadnet.engine import ShortestPathEngine, make_engine

KINDS = ("matrix", "dijkstra", "hub_label", "astar")


@pytest.fixture(scope="module")
def all_engines(small_city):
    return {kind: make_engine(small_city, kind) for kind in KINDS}


def test_all_kinds_constructible(all_engines):
    for kind, engine in all_engines.items():
        assert isinstance(engine, ShortestPathEngine), kind


def test_distances_agree_everywhere(all_engines, small_city, rng):
    reference = all_engines["matrix"]
    for _ in range(25):
        s, e = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
        expected = reference.distance(s, e)
        for kind, engine in all_engines.items():
            assert engine.distance(s, e) == pytest.approx(expected, rel=1e-9), (
                kind, s, e,
            )


def test_distance_many_agrees_across_kinds(all_engines, small_city, rng):
    reference = all_engines["matrix"]
    sources = [int(x) for x in rng.integers(0, small_city.num_vertices, 5)]
    for source in sources:
        targets = rng.integers(0, small_city.num_vertices, 12)
        expected = np.array(
            [reference.distance(source, int(t)) for t in targets]
        )
        for kind, engine in all_engines.items():
            got = engine.distance_many(source, targets)
            np.testing.assert_allclose(got, expected, rtol=1e-9, err_msg=kind)


def test_distance_many_matches_own_scalar(all_engines, small_city, rng):
    """The batched plane is elementwise identical to the engine's own
    scalar plane (bit-for-bit, not just approximately)."""
    for kind, engine in all_engines.items():
        source = int(rng.integers(0, small_city.num_vertices))
        targets = [int(t) for t in rng.integers(0, small_city.num_vertices, 10)]
        got = engine.distance_many(source, targets)
        expected = np.array([engine.distance(source, t) for t in targets])
        assert np.array_equal(got, expected), kind


def test_paths_valid_everywhere(all_engines, small_city, rng):
    for kind, engine in all_engines.items():
        s, e = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
        path = engine.path(s, e)
        assert path[0] == s and path[-1] == e, kind
        for u, v in zip(path, path[1:]):
            assert small_city.has_edge(u, v), kind


def test_vertices_within_consistent(all_engines, small_city):
    radius = 60.0
    reference = set(all_engines["matrix"].vertices_within(0, radius))
    for kind, engine in all_engines.items():
        assert set(engine.vertices_within(0, radius)) == reference, kind


def test_distances_from_consistent(all_engines, small_city):
    reference = np.asarray(all_engines["matrix"].distances_from(0), dtype=float)
    for kind, engine in all_engines.items():
        row = np.asarray(engine.distances_from(0), dtype=float)
        np.testing.assert_allclose(row, reference, rtol=1e-9, err_msg=kind)
