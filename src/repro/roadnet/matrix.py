"""All-pairs shortest-path engine backed by ``scipy.sparse.csgraph``.

For the benchmark-scale graphs used in this reproduction (thousands of
vertices), precomputing the full distance matrix once in C is far cheaper
than answering millions of on-demand Dijkstra queries in Python — this is
how the reproduction meets the paper's throughput requirements without a
C++ substrate. Distances are stored float64 (the ``csgraph`` output,
n² * 8 bytes) and predecessors int32 (n² * 4 bytes), so a 2,500-vertex
city costs ~75 MB and a 5,000-vertex city ~300 MB, well within the
paper's 3 GB process budget.
"""

from __future__ import annotations

from math import inf

import numpy as np

from repro.exceptions import DisconnectedError, GraphError
from repro.roadnet.dijkstra import row_ball, row_path, shortest_path_rows
from repro.roadnet.graph import RoadNetwork

_MAX_MATRIX_VERTICES = 20_000


class MatrixEngine:
    """Exact shortest-path engine over a precomputed APSP matrix.

    Implements the :class:`~repro.roadnet.engine.ShortestPathEngine`
    protocol. Paths are reconstructed on demand from the predecessor
    matrix.
    """

    kind = "matrix"

    def __init__(self, graph: RoadNetwork):
        if graph.num_vertices > _MAX_MATRIX_VERTICES:
            raise GraphError(
                f"MatrixEngine supports up to {_MAX_MATRIX_VERTICES} vertices; "
                f"got {graph.num_vertices}. Use DijkstraEngine for larger "
                "networks (make_engine's 'auto' picks it above 6,000 "
                "vertices)."
            )
        self.graph = graph
        dist, pred = shortest_path_rows(graph.to_scipy_csr())
        # float64 distances keep arrival times bit-consistent with path
        # reconstructions; predecessors stay int32 (half the footprint).
        self._dist = dist
        self._pred = pred.astype(np.int32)

    # ------------------------------------------------------------------
    # ShortestPathEngine protocol
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Exact ``d(source, target)``."""
        d = float(self._dist[source, target])
        if d == inf:
            raise DisconnectedError(source, target)
        return d

    def distance_many(self, source: int, targets) -> np.ndarray:
        """Batched fan-out via fancy indexing — one gather from the APSP
        row, no per-target Python work. ``inf`` cells mark unreachable
        targets (the batched plane never raises)."""
        if len(targets) == 0:
            return np.empty(0, dtype=np.float64)
        idx = np.asarray(targets, dtype=np.int64)
        return self._dist[source, idx].astype(np.float64, copy=False)

    def path(self, source: int, target: int) -> list[int]:
        """Shortest path ``[source, ..., target]`` from predecessors."""
        return row_path(self._dist[source], self._pred[source], source, target)

    def distances_from(self, source: int) -> np.ndarray:
        """Dense distance row from ``source`` (float64, inf = unreachable)."""
        return self._dist[source]

    def vertices_within(self, source: int, radius: float) -> dict[int, float]:
        """Vertices within network ``radius`` of ``source`` with distances."""
        return row_ball(self._dist[source], radius)

    def stats(self) -> dict[str, float]:
        """Memory footprint report for the harness."""
        return {
            "matrix_bytes": self._dist.nbytes + self._pred.nbytes,
            "num_vertices": self.graph.num_vertices,
        }
