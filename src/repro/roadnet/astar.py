"""Goal-directed point-to-point search: A* with admissible heuristics.

Section VI of the paper surveys the speedup-technique landscape — "A*,
Arc-flag (directing the search towards the goal), highway hierarchies,
transit node routing" — before settling on hub labels. This module
implements the goal-directed family:

* :class:`EuclideanHeuristic` — straight-line distance over the graph's
  coordinates, *auto-scaled to be admissible*: synthetic street lengths
  are not guaranteed to dominate the straight-line separation, so the
  heuristic is multiplied by the largest factor ``alpha`` for which
  ``alpha * euclid(u, v) / speed <= w(u, v)`` holds on every edge
  (computed once at construction). With ``alpha = 0`` (no coordinates or
  a degenerate edge) A* gracefully degrades to Dijkstra.
* :class:`LandmarkHeuristic` — ALT (A*, Landmarks, Triangle inequality):
  ``h(v) = max over landmarks l of |d(l, t) - d(l, v)|``, admissible on
  any graph, using a handful of far-apart landmarks selected greedily.

Both heuristics are *consistent*, so A* never re-expands settled
vertices and returns exact distances.
"""

from __future__ import annotations

import heapq
from math import inf

import numpy as np

from repro.constants import SPEED_MPS
from repro.exceptions import DisconnectedError, GraphError
from repro.roadnet.dijkstra import single_source_row, vertices_within
from repro.roadnet.graph import RoadNetwork


class EuclideanHeuristic:
    """Admissible straight-line lower bound (auto-scaled)."""

    def __init__(self, graph: RoadNetwork):
        if graph.coords is None:
            raise GraphError("EuclideanHeuristic needs vertex coordinates")
        self.graph = graph
        alpha = inf
        coords = graph.coords
        for u, v, w in graph.iter_edges():
            gap = float(np.hypot(*(coords[u] - coords[v]))) / SPEED_MPS
            if gap > 1e-12:
                alpha = min(alpha, w / gap)
        #: Admissibility factor: h(u) = alpha * euclid(u, t) / speed.
        self.alpha = min(alpha, 1.0) if alpha is not inf else 0.0

    def bind(self, target: int):
        """A per-target callable ``h(v)`` for one A* run."""
        coords = self.graph.coords
        tx, ty = coords[target]
        alpha = self.alpha

        def h(v: int) -> float:
            dx = coords[v, 0] - tx
            dy = coords[v, 1] - ty
            return alpha * (dx * dx + dy * dy) ** 0.5 / SPEED_MPS

        return h


class LandmarkHeuristic:
    """ALT lower bounds from greedily farthest-selected landmarks."""

    def __init__(self, graph: RoadNetwork, num_landmarks: int = 8, seed: int = 0):
        if num_landmarks < 1:
            raise ValueError("need at least one landmark")
        self.graph = graph
        rng = np.random.default_rng(seed)
        first = int(rng.integers(0, graph.num_vertices))
        landmarks = [first]
        tables = [single_source_row(graph, first)[0]]
        while len(landmarks) < min(num_landmarks, graph.num_vertices):
            # Farthest-point selection: maximize distance to chosen set.
            closest = np.minimum.reduce(tables)
            closest[~np.isfinite(closest)] = -1.0  # unreachable: never pick
            candidate = int(np.argmax(closest))
            if candidate in landmarks:
                break
            landmarks.append(candidate)
            tables.append(single_source_row(graph, candidate)[0])
        self.landmarks = landmarks
        #: (num_landmarks, |V|) distance table.
        self.tables = np.vstack(tables)

    def bind(self, target: int):
        """A per-target callable ``h(v) = max_l |d(l,t) - d(l,v)|``."""
        to_target = self.tables[:, target]
        tables = self.tables
        usable = np.isfinite(to_target)
        if not usable.any():
            return lambda v: 0.0
        tt = to_target[usable]
        tb = tables[usable]

        def h(v: int) -> float:
            column = tb[:, v]
            bounds = np.abs(tt - column)
            bounds[~np.isfinite(bounds)] = 0.0
            return float(bounds.max())

        return h


def astar_distance(graph: RoadNetwork, source: int, target: int, heuristic) -> float:
    """Exact ``d(source, target)`` via A* with a bound from
    ``heuristic.bind(target)``."""
    cost, _ = _astar(graph, source, target, heuristic, need_pred=False)
    return cost


def astar_path(graph: RoadNetwork, source: int, target: int, heuristic) -> list[int]:
    """Exact shortest path via A*."""
    _, pred = _astar(graph, source, target, heuristic, need_pred=True)
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def astar_expansions(graph: RoadNetwork, source: int, target: int, heuristic) -> int:
    """Number of vertices settled by the A* run (for speedup studies)."""
    _astar.counter = 0
    _astar(graph, source, target, heuristic, need_pred=False)
    return _astar.counter


def _astar(graph, source, target, heuristic, need_pred):
    if source == target:
        _astar.counter = 0
        return 0.0, {}
    h = heuristic.bind(target)
    best = {source: 0.0}
    pred: dict[int, int] = {}
    settled: set[int] = set()
    heap = [(h(source), source)]
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    expansions = 0
    while heap:
        f, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        expansions += 1
        if u == target:
            _astar.counter = expansions
            return best[u], pred
        du = best[u]
        lo, hi = indptr[u], indptr[u + 1]
        for pos in range(lo, hi):
            v = int(indices[pos])
            if v in settled:
                continue
            nd = du + weights[pos]
            if nd < best.get(v, inf):
                best[v] = nd
                if need_pred:
                    pred[v] = u
                heapq.heappush(heap, (nd + h(v), v))
    _astar.counter = expansions
    raise DisconnectedError(source, target)


_astar.counter = 0


class AStarEngine:
    """Shortest-path engine answering point-to-point queries with A*.

    ``heuristic="landmark"`` (ALT, default — works on any graph) or
    ``"euclidean"`` (needs coordinates). Satisfies the
    :class:`~repro.roadnet.engine.ShortestPathEngine` protocol.
    """

    kind = "astar"

    def __init__(self, graph: RoadNetwork, heuristic: str = "landmark", **kwargs):
        self.graph = graph
        if heuristic == "landmark":
            self.heuristic = LandmarkHeuristic(graph, **kwargs)
        elif heuristic == "euclidean":
            self.heuristic = EuclideanHeuristic(graph, **kwargs)
        else:
            raise ValueError(f"unknown heuristic {heuristic!r}")

    def distance(self, source: int, target: int) -> float:
        return astar_distance(self.graph, source, target, self.heuristic)

    def distance_many(self, source: int, targets) -> np.ndarray:
        """Batched queries via the shared scalar fallback loop: A* is
        inherently goal-directed (one heuristic binding per target), so
        there is no multi-target sweep to amortize."""
        from repro.roadnet.engine import distance_many_fallback

        return distance_many_fallback(self, source, targets)

    def path(self, source: int, target: int) -> list[int]:
        if source == target:
            return [source]
        return astar_path(self.graph, source, target, self.heuristic)

    def distances_from(self, source: int) -> np.ndarray:
        return single_source_row(self.graph, source)[0]

    def vertices_within(self, source: int, radius: float) -> dict[int, float]:
        return vertices_within(self.graph, source, radius)
