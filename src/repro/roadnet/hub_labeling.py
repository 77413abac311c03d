"""Hub labeling via pruned landmark labeling.

Section VI of the paper: "We implement the state-of-art hub-labeling
algorithm — a fast and practical algorithm to heuristically construct the
distance labeling on large road networks, where each vertex records a set
of intermediate vertices (and their distance to them) for the shortest
path computation".

This module implements the standard pruned-landmark-labeling construction
(process vertices in importance order; run a Dijkstra from each, pruning
any vertex already covered at equal-or-smaller distance by existing
labels). Queries are exact::

    d(u, v) = min over common hubs h of  L(u)[h] + L(v)[h]

Labels are frozen into sorted parallel numpy arrays per vertex so queries
run as a linear merge.
"""

from __future__ import annotations

import heapq
from math import inf

import numpy as np

from repro.exceptions import DisconnectedError
from repro.roadnet.dijkstra import dijkstra_path, vertices_within
from repro.roadnet.graph import RoadNetwork


class HubLabels:
    """Exact 2-hop distance labels for a road network."""

    def __init__(self, graph: RoadNetwork, order: np.ndarray | None = None):
        self.graph = graph
        if order is None:
            order = self._default_order(graph)
        self.order = np.asarray(order, dtype=np.int64)
        if sorted(self.order.tolist()) != list(range(graph.num_vertices)):
            raise ValueError("order must be a permutation of all vertices")
        self._build()

    @staticmethod
    def _default_order(graph: RoadNetwork) -> np.ndarray:
        """Vertices by descending degree (ties by id) — a cheap, effective
        importance heuristic for street graphs."""
        degrees = np.diff(graph.indptr)
        return np.lexsort((np.arange(graph.num_vertices), -degrees))

    def _build(self) -> None:
        graph = self.graph
        n = graph.num_vertices
        rank = np.empty(n, dtype=np.int64)
        rank[self.order] = np.arange(n)
        self._rank = rank
        # Working representation: per-vertex dict {hub_rank: dist}.
        labels: list[dict[int, float]] = [dict() for _ in range(n)]
        indptr, indices, weights = graph.indptr, graph.indices, graph.weights

        for hub_rank, root in enumerate(self.order.tolist()):
            root_label = labels[root]
            settled: set[int] = set()
            best = {root: 0.0}
            heap = [(0.0, root)]
            while heap:
                d, u = heapq.heappop(heap)
                if u in settled:
                    continue
                settled.add(u)
                # Prune if some earlier hub already certifies d(root, u) <= d.
                u_label = labels[u]
                pruned = False
                small, large = (
                    (root_label, u_label)
                    if len(root_label) < len(u_label)
                    else (u_label, root_label)
                )
                for h, dh in small.items():
                    other = large.get(h)
                    if other is not None and dh + other <= d:
                        pruned = True
                        break
                if pruned:
                    continue
                u_label[hub_rank] = d
                lo, hi = indptr[u], indptr[u + 1]
                for pos in range(lo, hi):
                    v = int(indices[pos])
                    if v in settled:
                        continue
                    nd = d + weights[pos]
                    if nd < best.get(v, inf):
                        best[v] = nd
                        heapq.heappush(heap, (nd, v))

        # Freeze into sorted parallel arrays for merge-join queries.
        self._hubs: list[np.ndarray] = []
        self._dists: list[np.ndarray] = []
        for label in labels:
            hubs = np.fromiter(label.keys(), dtype=np.int64, count=len(label))
            dists = np.fromiter(label.values(), dtype=np.float64, count=len(label))
            srt = np.argsort(hubs)
            self._hubs.append(hubs[srt])
            self._dists.append(dists[srt])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> float:
        """Exact shortest-path distance via label merge."""
        if source == target:
            return 0.0
        h1, d1 = self._hubs[source], self._dists[source]
        h2, d2 = self._hubs[target], self._dists[target]
        i = j = 0
        best = inf
        n1, n2 = len(h1), len(h2)
        while i < n1 and j < n2:
            a, b = h1[i], h2[j]
            if a == b:
                total = d1[i] + d2[j]
                if total < best:
                    best = total
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        if best is inf:
            raise DisconnectedError(source, target)
        return float(best)

    def query_many(self, source: int, targets) -> np.ndarray:
        """Batched label merge: all targets' label arrays are stacked
        into one pair of flat arrays and joined against the source label
        with a single ``searchsorted`` (labels are hub-sorted), then
        reduced per target with ``np.minimum.at``.

        The per-target Python merge loop disappears, and no
        ``O(|V|)`` scratch is allocated — work is proportional to the
        stacked label entries. The sums are the same ``d(s,h) + d(h,t)``
        floats the scalar merge adds, so results are bit-identical to
        :meth:`query`; unreachable targets come back as ``inf`` instead
        of raising.
        """
        k = len(targets)
        out = np.full(k, inf, dtype=np.float64)
        if k == 0:
            return out
        idx = np.asarray(targets, dtype=np.int64)
        src_hubs, src_dists = self._hubs[source], self._dists[source]
        if src_hubs.size:
            lengths = np.fromiter(
                (len(self._hubs[t]) for t in idx), dtype=np.int64, count=k
            )
            if int(lengths.sum()):
                all_hubs = np.concatenate([self._hubs[t] for t in idx])
                all_dists = np.concatenate([self._dists[t] for t in idx])
                owner = np.repeat(np.arange(k), lengths)
                pos = np.searchsorted(src_hubs, all_hubs)
                pos[pos == src_hubs.size] = 0  # clamp; masked below
                shared = src_hubs[pos] == all_hubs
                np.minimum.at(
                    out,
                    owner[shared],
                    src_dists[pos[shared]] + all_dists[shared],
                )
        out[idx == source] = 0.0
        return out

    @property
    def average_label_size(self) -> float:
        """Mean number of (hub, distance) entries per vertex."""
        return float(np.mean([len(h) for h in self._hubs]))

    @property
    def total_entries(self) -> int:
        """Total label entries across all vertices."""
        return int(sum(len(h) for h in self._hubs))


class HubLabelEngine:
    """Shortest-path engine answering distances from hub labels.

    Paths (needed only for vehicle movement, far less often than
    distances — the paper's observation behind its asymmetric caches) fall
    back to Dijkstra.
    """

    kind = "hub_label"

    def __init__(self, graph: RoadNetwork, order: np.ndarray | None = None):
        self.graph = graph
        self.labels = HubLabels(graph, order=order)

    def distance(self, source: int, target: int) -> float:
        """Exact distance via the labeling."""
        return self.labels.query(source, target)

    def distance_many(self, source: int, targets) -> np.ndarray:
        """Batched fan-out via the stacked vectorized label merge."""
        return self.labels.query_many(source, targets)

    def path(self, source: int, target: int) -> list[int]:
        """Shortest path via Dijkstra fallback."""
        return dijkstra_path(self.graph, source, target)

    def distances_from(self, source: int) -> np.ndarray:
        """Dense distance row (label query per vertex)."""
        out = np.empty(self.graph.num_vertices)
        for v in range(self.graph.num_vertices):
            try:
                out[v] = self.labels.query(source, v)
            except DisconnectedError:
                out[v] = inf
        return out

    def vertices_within(self, source: int, radius: float) -> dict[int, float]:
        """Vertices within ``radius``, via bounded Dijkstra (cheaper than
        querying every label for local neighborhoods)."""
        return vertices_within(self.graph, source, radius)

    def stats(self) -> dict[str, float]:
        """Label-size statistics for the harness."""
        return {
            "average_label_size": self.labels.average_label_size,
            "total_entries": self.labels.total_entries,
        }
