"""Contraction hierarchies (CH).

The last member of the paper's surveyed speedup family (Section VI:
"highway hierarchies (building shortcuts to reduce search space)").
Vertices are contracted in importance order; each contraction preserves
all shortest paths among the remaining vertices by inserting *shortcuts*
where no witness path exists. Queries run a bidirectional Dijkstra that
only relaxes edges toward higher-ranked vertices; the best meeting point
over both search spaces is the exact distance.

Implementation notes
--------------------
* Ordering uses the classic lazy-heap heuristic: priority = edge
  difference (shortcuts added − edges removed) + number of already
  contracted neighbors; priorities are re-evaluated on pop.
* Witness searches are plain Dijkstras on the uncontracted remainder,
  budgeted by settled-vertex count; an exhausted budget just means a
  (harmless) extra shortcut.
* The upward graph keeps, per vertex, only arcs to higher-ranked
  neighbors — both original edges and shortcuts.
"""

from __future__ import annotations

import heapq
from math import inf

import numpy as np

from repro.exceptions import DisconnectedError
from repro.roadnet.dijkstra import dijkstra_path, single_source_row, vertices_within
from repro.roadnet.graph import RoadNetwork

#: Witness searches stop after settling this many vertices.
_WITNESS_BUDGET = 60


class ContractionHierarchy:
    """Preprocessed CH over a road network; answers exact distances."""

    def __init__(self, graph: RoadNetwork, witness_budget: int = _WITNESS_BUDGET):
        self.graph = graph
        self.witness_budget = witness_budget
        n = graph.num_vertices
        # Working adjacency (mutated during contraction): v -> {u: weight}.
        adjacency: list[dict[int, float]] = [dict() for _ in range(n)]
        for u, v, w in graph.iter_edges():
            adjacency[u][v] = min(w, adjacency[u].get(v, inf))
            adjacency[v][u] = min(w, adjacency[v].get(u, inf))

        self.rank = [0] * n
        self.num_shortcuts = 0
        contracted = [False] * n
        contracted_neighbors = [0] * n

        def simulate(v: int) -> tuple[int, list[tuple[int, int, float]]]:
            """Shortcuts needed to contract ``v`` now."""
            neighbors = [u for u in adjacency[v] if not contracted[u]]
            shortcuts: list[tuple[int, int, float]] = []
            for i, u in enumerate(neighbors):
                for w_vertex in neighbors[i + 1 :]:
                    through = adjacency[v][u] + adjacency[v][w_vertex]
                    if not self._has_witness(
                        adjacency, contracted, u, w_vertex, v, through
                    ):
                        shortcuts.append((u, w_vertex, through))
            return len(shortcuts) - len(neighbors), shortcuts

        heap: list[tuple[float, int]] = []
        for v in range(n):
            edge_diff, _ = simulate(v)
            heapq.heappush(heap, (float(edge_diff), v))

        order = 0
        while heap:
            _, v = heapq.heappop(heap)
            if contracted[v]:
                continue
            edge_diff, shortcuts = simulate(v)
            priority = float(edge_diff + contracted_neighbors[v])
            if heap and priority > heap[0][0] + 1e-9:
                heapq.heappush(heap, (priority, v))  # lazy re-evaluation
                continue
            # Contract v.
            for u, w_vertex, weight in shortcuts:
                if weight < adjacency[u].get(w_vertex, inf):
                    adjacency[u][w_vertex] = weight
                    adjacency[w_vertex][u] = weight
                    self.num_shortcuts += 1
            contracted[v] = True
            self.rank[v] = order
            order += 1
            for u in adjacency[v]:
                if not contracted[u]:
                    contracted_neighbors[u] += 1

        # Upward arcs only (to higher rank), original + shortcuts.
        self._up: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for v in range(n):
            for u, w in adjacency[v].items():
                if self.rank[u] > self.rank[v]:
                    self._up[v].append((u, w))

    def _has_witness(
        self, adjacency, contracted, source, target, skip, limit
    ) -> bool:
        """Is there a path source->target avoiding ``skip`` with cost <=
        limit, in the uncontracted remainder? Budgeted Dijkstra."""
        best = {source: 0.0}
        heap = [(0.0, source)]
        settled = 0
        while heap and settled < self.witness_budget:
            d, u = heapq.heappop(heap)
            if d > best.get(u, inf):
                continue
            if u == target:
                return True
            if d > limit:
                return False
            settled += 1
            for v, w in adjacency[u].items():
                if v == skip or contracted[v]:
                    continue
                nd = d + w
                if nd <= limit + 1e-12 and nd < best.get(v, inf):
                    best[v] = nd
                    heapq.heappush(heap, (nd, v))
        return False

    # ------------------------------------------------------------------
    def upward_distances(self, vertex: int) -> dict[int, float]:
        """Full upward Dijkstra from ``vertex`` (its CH search space).

        The upward search space of a vertex is tiny relative to the
        graph, so sweeping it to exhaustion once and reusing it across a
        whole batch of targets is the CH batching lever: distances to
        ``k`` targets cost one forward sweep plus ``k`` backward sweeps
        instead of ``k`` bidirectional searches.
        """
        dist: dict[int, float] = {vertex: 0.0}
        heap: list[tuple[float, int]] = [(0.0, vertex)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, inf):
                continue
            for v, w in self._up[u]:
                nd = d + w
                if nd < dist.get(v, inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def query_many(self, source: int, targets) -> np.ndarray:
        """Batched fan-out: one shared forward upward sweep, one backward
        upward sweep per target, meeting-point minimum per target.
        ``inf`` marks unreachable targets (no exception)."""
        out = np.full(len(targets), inf, dtype=np.float64)
        if not len(targets):
            return out
        forward = self.upward_distances(source)
        backward_cache: dict[int, float] = {}
        for i, raw in enumerate(targets):
            target = int(raw)
            if target == source:
                out[i] = 0.0
                continue
            cached = backward_cache.get(target)
            if cached is not None:
                out[i] = cached
                continue
            best = inf
            for u, db in self.upward_distances(target).items():
                df = forward.get(u)
                if df is not None and df + db < best:
                    best = df + db
            backward_cache[target] = best
            out[i] = best
        return out

    def query(self, source: int, target: int) -> float:
        """Exact shortest-path distance via bidirectional upward search."""
        if source == target:
            return 0.0
        dist_f = {source: 0.0}
        dist_b = {target: 0.0}
        heap_f = [(0.0, source)]
        heap_b = [(0.0, target)]
        best = inf
        while heap_f or heap_b:
            for heap, dist, other in (
                (heap_f, dist_f, dist_b),
                (heap_b, dist_b, dist_f),
            ):
                if not heap:
                    continue
                d, u = heapq.heappop(heap)
                if d > dist.get(u, inf) or d > best:
                    continue
                if u in other:
                    best = min(best, d + other[u])
                for v, w in self._up[u]:
                    nd = d + w
                    if nd < dist.get(v, inf):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
            if heap_f and heap_b and min(heap_f[0][0], heap_b[0][0]) > best:
                break
        if best is inf:
            raise DisconnectedError(source, target)
        return best


class CHEngine:
    """Shortest-path engine answering distances from a contraction
    hierarchy (paths and ball queries fall back to Dijkstra, like the
    hub-label engine)."""

    kind = "ch"
    #: A single query's early-terminating bidirectional search beats an
    #: exhaustive forward sweep; sharing the sweep pays from 2 targets on.
    batch_cutoff = 1

    def __init__(self, graph: RoadNetwork, witness_budget: int = _WITNESS_BUDGET):
        self.graph = graph
        self.hierarchy = ContractionHierarchy(graph, witness_budget=witness_budget)

    def distance(self, source: int, target: int) -> float:
        return self.hierarchy.query(source, target)

    def distance_many(self, source: int, targets) -> np.ndarray:
        """Batched fan-out sharing one forward upward sweep per call."""
        return self.hierarchy.query_many(source, targets)

    def path(self, source: int, target: int) -> list[int]:
        return dijkstra_path(self.graph, source, target)

    def distances_from(self, source: int):
        return single_source_row(self.graph, source)[0]

    def vertices_within(self, source: int, radius: float) -> dict[int, float]:
        return vertices_within(self.graph, source, radius)

    def stats(self) -> dict[str, float]:
        return {
            "num_shortcuts": self.hierarchy.num_shortcuts,
            "num_vertices": self.graph.num_vertices,
        }
