"""Supporting microbenchmarks: shortest-path engines, the dual LRU cache,
the grid index, and raw kinetic-tree insertion throughput.

These measure the substrate costs discussed in Section VI ("the shortest
path algorithm is called very frequently and can be the bottleneck if not
implemented efficiently").
"""

import numpy as np
import pytest

from repro.core.kinetic.tree import KineticTree
from repro.core.request import TripRequest
from repro.roadnet.engine import DijkstraEngine
from repro.roadnet.generators import grid_city
from repro.roadnet.hub_labeling import HubLabelEngine
from repro.roadnet.matrix import MatrixEngine
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid_index import GridIndex


@pytest.fixture(scope="module")
def city():
    return grid_city(20, 20, seed=3)


@pytest.fixture(scope="module")
def queries(city):
    rng = np.random.default_rng(3)
    return [
        (int(rng.integers(0, city.num_vertices)), int(rng.integers(0, city.num_vertices)))
        for _ in range(500)
    ]


def test_matrix_engine_distance(benchmark, city, queries):
    engine = MatrixEngine(city)

    def run():
        for s, e in queries:
            engine.distance(s, e)

    benchmark(run)


def test_dijkstra_engine_distance_cached(benchmark, city, queries):
    engine = DijkstraEngine(city)
    for s, e in queries:  # warm the LRU
        engine.distance(s, e)

    def run():
        for s, e in queries:
            engine.distance(s, e)

    benchmark(run)


def test_hub_label_distance(benchmark, city, queries):
    engine = HubLabelEngine(city)

    def run():
        for s, e in queries:
            engine.distance(s, e)

    benchmark(run)


def test_grid_index_query(benchmark, city):
    bounds = BoundingBox(0, 0, 5000, 5000)
    index = GridIndex(bounds, cell_meters=400)
    rng = np.random.default_rng(0)
    for vid in range(500):
        index.update(vid, float(rng.uniform(0, 5000)), float(rng.uniform(0, 5000)))

    def run():
        for _ in range(200):
            index.query_radius(2500.0, 2500.0, 900.0)

    benchmark(run)


def test_kinetic_insertion_throughput(benchmark, city):
    """Trial insertions per second at a realistic tree depth."""
    engine = MatrixEngine(city)
    rng = np.random.default_rng(1)

    def fresh_tree():
        tree = KineticTree(engine, start_vertex=0, capacity=6, mode="slack")
        t = 0.0
        rid = 0
        while tree.num_active_trips < 4:
            o, d = rng.integers(0, city.num_vertices, 2)
            if o == d:
                continue
            request = TripRequest(
                rid, int(o), int(d), t, 1800.0, 0.5, engine.distance(int(o), int(d))
            )
            rid += 1
            trial = tree.try_insert(request, tree.root_vertex, t)
            if trial is not None:
                tree.commit(trial)
        return tree, rid

    tree, rid = fresh_tree()
    probes = []
    while len(probes) < 50:
        o, d = rng.integers(0, city.num_vertices, 2)
        if o != d:
            probes.append(
                TripRequest(
                    rid + len(probes), int(o), int(d), 0.0, 1800.0, 0.5,
                    engine.distance(int(o), int(d)),
                )
            )

    def run():
        for request in probes:
            tree.try_insert(request, tree.root_vertex, 0.0)

    benchmark(run)
