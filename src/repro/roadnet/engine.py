"""Shortest-path engine protocol, the Dijkstra engine, and a factory.

Every matcher, tree, and simulator component takes a
:class:`ShortestPathEngine` — the single seam between the scheduling
algorithms and the road network, exactly mirroring the paper where all
algorithms consume ``d(u, v)`` and shortest paths.

The protocol has two query planes, and each caller uses one. The
kinetic tree reads the scalar ``distance(u, v)`` the paper describes,
one leg at a time. The dispatcher's fleet screens read the batched
``distance_many(u, targets)``: one fan-out from a pickup to every
candidate vehicle, or from a vehicle to every pickup in its batch.
Every engine implements both with identical per-element values.
"""

from __future__ import annotations

from math import inf
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.constants import DEFAULT_ROW_CACHE_SIZE
from repro.exceptions import DisconnectedError
from repro.roadnet.cache import LRUCache
from repro.roadnet.dijkstra import row_ball, row_path, shortest_path_rows
from repro.roadnet.graph import RoadNetwork

#: Cell budget of the Dijkstra engine's row LRU: at most this many cached
#: distances (one per vertex per row) across all rows.
ROW_CACHE_CELLS = 2_000_000


@runtime_checkable
class ShortestPathEngine(Protocol):
    """What the rest of the library needs from a road network."""

    graph: RoadNetwork

    def distance(self, source: int, target: int) -> float:
        """Exact shortest-path cost ``d(source, target)`` in seconds."""
        ...

    def distance_many(self, source: int, targets: Sequence[int]) -> np.ndarray:
        """Exact ``d(source, t)`` for every ``t`` in ``targets``, as a
        float64 array aligned with ``targets``; ``inf`` marks unreachable
        targets (no exception). The dispatcher's fleet screens use it
        for one fan-out over many vehicles or pickups."""
        ...

    def path(self, source: int, target: int) -> list[int]:
        """A shortest path as a vertex list ``[source, ..., target]``."""
        ...

    def distances_from(self, source: int) -> np.ndarray:
        """Dense array of distances from ``source`` to every vertex."""
        ...

    def vertices_within(self, source: int, radius: float) -> dict[int, float]:
        """Vertices (with distances) whose network distance <= ``radius``."""
        ...


def distance_many_fallback(
    engine: "ShortestPathEngine", source: int, targets: Sequence[int]
) -> np.ndarray:
    """Shared scalar-loop implementation of ``distance_many``.

    Engines without a batched fast path (A*) delegate here so the whole
    engine family still satisfies the protocol with identical semantics:
    element ``i`` equals ``engine.distance(source, targets[i])``, with
    ``inf`` (not an exception) for unreachable targets.
    """
    out = np.empty(len(targets), dtype=np.float64)
    for i, target in enumerate(targets):
        try:
            out[i] = engine.distance(source, int(target))
        except DisconnectedError:
            out[i] = inf
    return out


class DijkstraEngine:
    """On-demand exact Dijkstra behind the paper's LRU cache.

    This is the configuration the paper describes for the full Shanghai
    network (Section VI), and the one ``auto`` picks above 6,000
    vertices. Every query from ``source`` reads the source's full
    distance and predecessor rows: one ``csgraph`` sweep in C — the call
    the matrix engine makes for all sources at once, so both engines
    give the same answers — held in an LRU of rows keyed by source
    (:class:`~repro.roadnet.cache.LRUCache`). A distance is therefore a
    pure function of ``(source, target)``, whatever was asked before.

    The LRU holds at most ``row_cache_size`` rows and at most
    :data:`ROW_CACHE_CELLS` distances in all, so its memory stays
    bounded on large graphs.
    """

    kind = "dijkstra"

    def __init__(
        self, graph: RoadNetwork, row_cache_size: int = DEFAULT_ROW_CACHE_SIZE
    ):
        self.graph = graph
        self._csr = graph.to_scipy_csr()
        self.rows = LRUCache(
            max(1, min(row_cache_size, ROW_CACHE_CELLS // graph.num_vertices))
        )

    def _row(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(dist, pred)`` rows of ``source``, swept on a miss."""
        row = self.rows.get(source)
        if row is None:
            row = shortest_path_rows(self._csr, source)
            for array in row:
                array.flags.writeable = False  # shared with every caller
            self.rows.put(source, row)
        return row

    def distance(self, source: int, target: int) -> float:
        """Exact ``d(source, target)`` from the row of ``source``."""
        if source == target:
            return 0.0
        value = float(self._row(source)[0][target])
        if value == inf:
            raise DisconnectedError(source, target)
        return value

    def distance_many(self, source: int, targets) -> np.ndarray:
        """Batched fan-out: one gather from the row of ``source``; ``inf``
        marks unreachable targets (the batched plane never raises)."""
        if len(targets) == 0:
            return np.empty(0, dtype=np.float64)
        return self._row(int(source))[0][np.asarray(targets, dtype=np.int64)]

    def path(self, source: int, target: int) -> list[int]:
        """Shortest path walked back through the predecessor row of
        ``source``."""
        if source == target:
            return [source]
        return row_path(*self._row(source), source, target)

    def distances_from(self, source: int) -> np.ndarray:
        """The (read-only) distance row of ``source``."""
        return self._row(source)[0]

    def vertices_within(self, source: int, radius: float) -> dict[int, float]:
        """Vertices within network ``radius`` of ``source``."""
        return row_ball(self._row(source)[0], radius)

    def stats(self) -> dict[str, float]:
        """Row-LRU statistics for reporting."""
        return {
            "row_hits": self.rows.hits,
            "row_misses": self.rows.misses,
            "row_hit_rate": self.rows.hit_rate,
            "row_entries": len(self.rows),
        }


#: Every ``kind`` accepted by :func:`make_engine` (also what
#: ``SimulationConfig.engine_kind`` and the sim CLI's ``--engine`` take).
ENGINE_KINDS = ("auto", "matrix", "dijkstra", "hub_label", "astar")


def make_engine(graph: RoadNetwork, kind: str = "auto", **kwargs) -> ShortestPathEngine:
    """Build a shortest-path engine.

    ``kind`` (see :data:`ENGINE_KINDS`):
      * ``"auto"`` — matrix engine for graphs small enough to precompute
        all pairs (the benchmark configuration), Dijkstra otherwise;
      * ``"matrix"`` | ``"dijkstra"`` | ``"hub_label"`` | ``"astar"`` —
        explicit choice.
    """
    from repro.roadnet.astar import AStarEngine
    from repro.roadnet.hub_labeling import HubLabelEngine
    from repro.roadnet.matrix import MatrixEngine

    if kind == "auto":
        kind = "matrix" if graph.num_vertices <= 6_000 else "dijkstra"
    if kind == "matrix":
        return MatrixEngine(graph, **kwargs)
    if kind == "dijkstra":
        return DijkstraEngine(graph, **kwargs)
    if kind == "hub_label":
        return HubLabelEngine(graph, **kwargs)
    if kind == "astar":
        return AStarEngine(graph, **kwargs)
    raise ValueError(f"unknown engine kind {kind!r}")
