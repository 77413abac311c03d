"""Grid-based moving-vehicle index."""

import numpy as np
import pytest

from repro.spatial.geometry import BoundingBox, euclidean_distance
from repro.spatial.grid_index import GridIndex


@pytest.fixture
def index():
    return GridIndex(BoundingBox(0, 0, 1000, 1000), cell_meters=100)


def test_update_and_query(index):
    index.update(1, 150, 150)
    assert 1 in index
    assert 1 in index.query_radius(150, 150, 50)


def test_update_within_cell_is_noop(index):
    assert index.update(1, 150, 150) is True
    assert index.update(1, 160, 140) is False  # same cell
    assert index.moves_within_cell == 1
    assert index.updates == 1


def test_update_across_cells(index):
    index.update(1, 150, 150)
    assert index.update(1, 450, 150) is True
    assert 1 not in index.query_radius(150, 150, 60)
    assert 1 in index.query_radius(450, 150, 60)


def test_query_is_conservative_superset(index):
    rng = np.random.default_rng(0)
    positions = {}
    for vid in range(200):
        x, y = rng.uniform(0, 1000, 2)
        index.update(vid, float(x), float(y))
        positions[vid] = (float(x), float(y))
    center, radius = (500.0, 500.0), 180.0
    hits = set(index.query_radius(*center, radius))
    for vid, pos in positions.items():
        if euclidean_distance(pos, center) <= radius:
            assert vid in hits, f"vehicle {vid} within radius but missed"


def test_query_zero_radius(index):
    index.update(1, 500, 500)
    assert 1 in index.query_radius(500, 500, 0.0)


def test_query_negative_radius(index):
    with pytest.raises(ValueError):
        index.query_radius(0, 0, -1.0)


def test_out_of_bounds_clamped(index):
    index.update(1, -50, 2000)  # clamps to a border cell
    assert 1 in index
    assert 1 in index.query_radius(0, 1000, 150)


def test_remove(index):
    index.update(1, 100, 100)
    index.remove(1)
    assert 1 not in index
    assert index.query_radius(100, 100, 500) == []
    index.remove(1)  # idempotent


def test_len_and_all(index):
    for vid in range(5):
        index.update(vid, vid * 100.0, 50.0)
    assert len(index) == 5
    assert sorted(index.all_vehicles()) == list(range(5))


def test_invalid_cell_size():
    with pytest.raises(ValueError):
        GridIndex(BoundingBox(0, 0, 10, 10), cell_meters=0)


def test_stats(index):
    index.update(1, 10, 10)
    stats = index.stats()
    assert stats["vehicles"] == 1
    assert stats["occupied_cells"] == 1


def test_empty_cells_removed(index):
    index.update(1, 50, 50)
    index.update(1, 950, 950)
    assert index.stats()["occupied_cells"] == 1


def test_boundary_points_land_in_the_higher_cell(index):
    """A vehicle exactly on a cell edge always lands in the higher cell
    (floor semantics), so co-located boundary vehicles share a cell
    every time."""
    assert index.cell_of(100.0, 0.0) == (0, 1)
    assert index.cell_of(0.0, 100.0) == (1, 0)
    assert index.cell_of(200.0, 200.0) == (2, 2)
    # The far border clamps into the last cell instead of overflowing.
    assert index.cell_of(1000.0, 1000.0) == (9, 9)
    # Two vehicles reported at the identical boundary point share a cell.
    assert index.cell_of(300.0, 500.0) == (5, 3)
    index.update(1, 300.0, 500.0)
    index.update(2, 300.0, 500.0)
    assert index.stats()["occupied_cells"] == 1
    # Re-reporting the same boundary point is a within-cell no-op.
    assert index.update(1, 300.0, 500.0) is False
