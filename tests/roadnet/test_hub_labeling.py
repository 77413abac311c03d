"""Hub labeling (pruned landmark labeling)."""

import numpy as np
import pytest

from repro.exceptions import DisconnectedError
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.hub_labeling import HubLabelEngine, HubLabels
from tests.roadnet.reference_dijkstra import reference_distance


@pytest.fixture(scope="module")
def labels(small_city):
    return HubLabels(small_city)


def test_exact_on_small_city(small_city, labels, rng):
    for _ in range(50):
        s, e = rng.integers(0, small_city.num_vertices, 2)
        assert labels.query(int(s), int(e)) == pytest.approx(
            reference_distance(small_city, int(s), int(e)), rel=1e-9
        )


def test_same_vertex(labels):
    assert labels.query(7, 7) == 0.0


def test_disconnected():
    g = RoadNetwork(4, [(0, 1, 1.0), (2, 3, 1.0)])
    labels = HubLabels(g)
    with pytest.raises(DisconnectedError):
        labels.query(0, 2)


def test_label_sizes_reported(labels, small_city):
    assert labels.average_label_size >= 1.0
    assert labels.total_entries >= small_city.num_vertices


def test_labels_much_smaller_than_apsp(labels, small_city):
    # The whole point of hub labels: far fewer entries than n^2.
    assert labels.total_entries < small_city.num_vertices**2 / 4


def test_custom_order(square_graph):
    labels = HubLabels(square_graph, order=np.array([3, 2, 1, 0]))
    assert labels.query(0, 3) == pytest.approx(2.0)


def test_bad_order_rejected(square_graph):
    with pytest.raises(ValueError):
        HubLabels(square_graph, order=np.array([0, 0, 1, 2]))


def test_engine_api(small_city, rng):
    engine = HubLabelEngine(small_city)
    s, e = (int(x) for x in rng.integers(0, small_city.num_vertices, 2))
    assert engine.distance(s, e) == pytest.approx(
        reference_distance(small_city, s, e)
    )
    path = engine.path(s, e)
    assert path[0] == s and path[-1] == e
    ball = engine.vertices_within(s, 60.0)
    assert s in ball
    row = engine.distances_from(s)
    assert row[s] == 0.0
    assert engine.stats()["average_label_size"] > 0
