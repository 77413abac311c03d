"""Schedulers must be engine-agnostic: identical answers over every
shortest-path engine (the ShortestPathEngine seam really is a seam)."""

import numpy as np
import pytest

from repro.algorithms.brute_force import BruteForce
from repro.core.kinetic.tree import KineticTree
from repro.core.problem import SchedulingProblem
from repro.core.request import TripRequest
from repro.roadnet.astar import AStarEngine
from repro.roadnet.engine import DijkstraEngine
from repro.roadnet.hub_labeling import HubLabelEngine
from repro.roadnet.matrix import MatrixEngine


@pytest.fixture(scope="module")
def engines(small_city):
    return {
        "matrix": MatrixEngine(small_city),
        "dijkstra": DijkstraEngine(small_city),
        "hub_label": HubLabelEngine(small_city),
        "astar": AStarEngine(small_city),
    }


def build_problem(engine, seed):
    rng = np.random.default_rng(seed)
    n = engine.graph.num_vertices
    requests = []
    for rid in range(3):
        while True:
            o, d = (int(x) for x in rng.integers(0, n, 2))
            if o != d:
                break
        requests.append(
            TripRequest(rid, o, d, 0.0, 700.0, 0.8, engine.distance(o, d))
        )
    *pending, new = requests
    return SchedulingProblem(int(rng.integers(0, n)), 0.0, {}, tuple(pending), new, 4)


@pytest.mark.parametrize("seed", range(4))
def test_bruteforce_engine_agnostic(engines, seed):
    costs = {}
    for name, engine in engines.items():
        problem = build_problem(engine, seed)
        result = BruteForce(engine).solve(problem)
        costs[name] = None if result is None else round(result.cost, 6)
    assert len(set(costs.values())) == 1, costs


@pytest.mark.parametrize("seed", range(4))
def test_kinetic_tree_engine_agnostic(engines, seed):
    outcomes = {}
    for name, engine in engines.items():
        problem = build_problem(engine, seed)
        tree = KineticTree.from_problem(engine, problem)
        if tree is None:
            outcomes[name] = None
            continue
        trial = tree.try_insert(problem.new_request, problem.start_vertex, 0.0)
        outcomes[name] = None if trial is None else round(trial.best_cost, 6)
    assert len(set(outcomes.values())) == 1, outcomes
