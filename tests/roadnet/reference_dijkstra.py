"""An independent oracle for the library's Dijkstra, which runs in C
(``scipy.sparse.csgraph``): a textbook binary-heap Dijkstra in pure
Python over the graph's CSR arrays.
"""

import heapq
from math import inf

import numpy as np

from repro.exceptions import DisconnectedError


def reference_distances(graph, source):
    """Distances from ``source`` to every vertex (``inf`` = unreachable)."""
    dist = np.full(graph.num_vertices, inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for pos in range(graph.indptr[u], graph.indptr[u + 1]):
            v = int(graph.indices[pos])
            nd = d + graph.weights[pos]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reference_distance(graph, source, target):
    """``d(source, target)``; raises :class:`DisconnectedError` when no
    path exists."""
    value = reference_distances(graph, source)[target]
    if value == inf:
        raise DisconnectedError(source, target)
    return float(value)
