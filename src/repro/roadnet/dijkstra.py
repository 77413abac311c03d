"""Dijkstra shortest paths over :class:`~repro.roadnet.graph.RoadNetwork`.

Every exact search in the library is one ``scipy.sparse.csgraph.dijkstra``
call, run in C: the matrix engine's all-pairs table, the Dijkstra engine's
rows, the A* landmark tables and the path and ball fallbacks of the
hub-label engine. :func:`shortest_path_rows` is that call, so every engine
reads the same numbers; the helpers below read one row of it.
"""

from __future__ import annotations

from math import inf

import numpy as np
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from repro.exceptions import DisconnectedError
from repro.roadnet.graph import RoadNetwork


def shortest_path_rows(csr, sources=None) -> tuple[np.ndarray, np.ndarray]:
    """Distances (float64, ``inf`` = unreachable) and predecessors (int32,
    negative = none) from ``sources`` to every vertex of the undirected
    graph ``csr``: one row per source, or 1-D arrays for a single int
    source; ``None`` means every vertex (all pairs).

    ``csr`` must be symmetric, as :meth:`RoadNetwork.to_scipy_csr` is (it
    stores both arcs of every edge at one weight). The search then runs
    with ``directed=True`` over the arcs as given, so scipy does not
    rebuild the symmetric graph from ``csr`` and its transpose on every
    call."""
    return csgraph_dijkstra(
        csr, directed=True, indices=sources, return_predecessors=True
    )


def row_path(dist: np.ndarray, pred: np.ndarray, source: int, target: int) -> list[int]:
    """Shortest path ``[source, ..., target]`` walked back through the
    predecessor row of ``source``."""
    if source == target:
        return [source]
    if dist[target] == inf:
        raise DisconnectedError(source, target)
    path = [target]
    v = target
    while v != source:
        v = int(pred[v])
        path.append(v)
    path.reverse()
    return path


def row_ball(dist: np.ndarray, radius: float) -> dict[int, float]:
    """Vertices (with distances) of a distance row within ``radius``.

    This is the exact form of the paper's candidate filter: "servers that
    are farther than ``w`` from the pickup location are unable to respond".
    """
    hits = np.nonzero(dist <= radius)[0]
    return {int(v): float(dist[v]) for v in hits}


def single_source_row(graph: RoadNetwork, source: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(dist, pred)`` rows of one source (uncached)."""
    return shortest_path_rows(graph.to_scipy_csr(), int(source))


def dijkstra_distance(graph: RoadNetwork, source: int, target: int) -> float:
    """Shortest-path cost ``d(source, target)``.

    Raises :class:`~repro.exceptions.DisconnectedError` when no path
    exists.
    """
    if source == target:
        return 0.0
    value = float(single_source_row(graph, source)[0][target])
    if value == inf:
        raise DisconnectedError(source, target)
    return value


def dijkstra_path(graph: RoadNetwork, source: int, target: int) -> list[int]:
    """Shortest path as a vertex list ``[source, ..., target]``."""
    if source == target:
        return [source]
    return row_path(*single_source_row(graph, source), source, target)


def vertices_within(
    graph: RoadNetwork, source: int, radius: float
) -> dict[int, float]:
    """All vertices whose network distance from ``source`` is <= radius."""
    return row_ball(single_source_row(graph, source)[0], radius)
