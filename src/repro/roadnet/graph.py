"""Compact road-network graph representation.

A :class:`RoadNetwork` stores an undirected, positively weighted graph in
CSR (compressed sparse row) form using numpy arrays, which keeps traversal
tight in pure Python and interoperates directly with
``scipy.sparse.csgraph``. Vertices are dense integers ``0..n-1``; optional
planar coordinates (meters) support spatial indexing and nearest-vertex
mapping of raw trip coordinates, as done for the Shanghai dataset in the
paper.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import GraphError


class RoadNetwork:
    """Undirected weighted road graph ``G = <V, E, W>`` in CSR form.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``|V|``; vertices are ``0..num_vertices-1``.
    edges:
        Iterable of ``(u, v, weight)`` triples. Each undirected edge is
        given once; both directions are materialized internally. Weights
        are travel costs (seconds throughout this library) and must be
        positive. Parallel edges collapse to the minimum weight.
    coords:
        Optional ``(num_vertices, 2)`` array of planar coordinates in
        meters.
    """

    __slots__ = (
        "num_vertices",
        "indptr",
        "indices",
        "weights",
        "coords",
        "_kdtree",
        "_arc_keys",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int, float]],
        coords: np.ndarray | None = None,
    ):
        if num_vertices <= 0:
            raise GraphError("a road network needs at least one vertex")
        self.num_vertices = int(num_vertices)

        best: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if not 0 <= u < num_vertices or not 0 <= v < num_vertices:
                raise GraphError(f"edge ({u}, {v}) references an unknown vertex")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            if w <= 0 or not np.isfinite(w):
                raise GraphError(f"edge ({u}, {v}) has non-positive weight {w}")
            key = (u, v) if u < v else (v, u)
            prior = best.get(key)
            if prior is None or w < prior:
                best[key] = w

        m = len(best)
        src = np.empty(2 * m, dtype=np.int32)
        dst = np.empty(2 * m, dtype=np.int32)
        wgt = np.empty(2 * m, dtype=np.float64)
        for i, ((u, v), w) in enumerate(best.items()):
            src[2 * i], dst[2 * i], wgt[2 * i] = u, v, w
            src[2 * i + 1], dst[2 * i + 1], wgt[2 * i + 1] = v, u, w

        order = np.lexsort((dst, src))
        src, dst, wgt = src[order], dst[order], wgt[order]
        self.indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(self.indptr, src + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        self.indices = dst
        self.weights = wgt
        #: ``u * n + v`` per directed arc, ascending in CSR order: one
        #: ``searchsorted`` finds every arc of a path (:meth:`path_weights`).
        self._arc_keys = src.astype(np.int64) * num_vertices + dst

        if coords is not None:
            coords = np.asarray(coords, dtype=np.float64)
            if coords.shape != (num_vertices, 2):
                raise GraphError(
                    f"coords must have shape ({num_vertices}, 2), got {coords.shape}"
                )
        self.coords = coords
        self._kdtree = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def neighbors(self, u: int) -> np.ndarray:
        """Vertices adjacent to ``u`` (int32 array view)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def neighbor_weights(self, u: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Number of edges incident to ``u``."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``.

        Raises :class:`~repro.exceptions.GraphError` if the edge is absent.
        """
        lo, hi = self.indptr[u], self.indptr[u + 1]
        pos = lo + np.searchsorted(self.indices[lo:hi], v)
        if pos < hi and self.indices[pos] == v:
            return float(self.weights[pos])
        raise GraphError(f"no edge between vertices {u} and {v}")

    def path_weights(self, path: Sequence[int]) -> list[float]:
        """Weights of the consecutive edges of ``path``, in order (one
        vectorised lookup; each equals :meth:`edge_weight` of its pair).

        Raises :class:`~repro.exceptions.GraphError` if an edge is absent.
        """
        vertices = np.asarray(path, dtype=np.int64)
        if len(vertices) < 2:
            return []
        if vertices.min() < 0 or vertices.max() >= self.num_vertices:
            raise GraphError(f"path {list(path)} references an unknown vertex")
        keys = vertices[:-1] * self.num_vertices + vertices[1:]
        pos = np.searchsorted(self._arc_keys, keys)
        np.minimum(pos, len(self._arc_keys) - 1, out=pos)
        found = self._arc_keys[pos] == keys
        if not found.all():
            i = int(np.argmin(found))
            raise GraphError(f"no edge between vertices {path[i]} and {path[i + 1]}")
        return self.weights[pos].tolist()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge ``(u, v)`` exists."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        pos = lo + np.searchsorted(self.indices[lo:hi], v)
        return bool(pos < hi and self.indices[pos] == v)

    def iter_edges(self):
        """Yield each undirected edge once as ``(u, v, weight)`` with u < v."""
        for u in range(self.num_vertices):
            lo, hi = self.indptr[u], self.indptr[u + 1]
            for pos in range(lo, hi):
                v = int(self.indices[pos])
                if u < v:
                    yield u, v, float(self.weights[pos])

    def validate_vertex(self, v: int) -> int:
        """Return ``v`` as int, raising :class:`GraphError` if out of range."""
        v = int(v)
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")
        return v

    # ------------------------------------------------------------------
    # Interop and geometry
    # ------------------------------------------------------------------
    def to_scipy_csr(self):
        """The graph as a ``scipy.sparse.csr_matrix`` (directed expansion)."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.weights, self.indices, self.indptr),
            shape=(self.num_vertices, self.num_vertices),
        )

    def nearest_vertex(self, x: float, y: float) -> int:
        """Map a planar coordinate to the closest vertex.

        Mirrors the paper's pre-mapping of raw trip coordinates onto the
        road graph. Requires ``coords``.
        """
        if self.coords is None:
            raise GraphError("road network has no coordinates")
        if self._kdtree is None:
            from scipy.spatial import cKDTree

            self._kdtree = cKDTree(self.coords)
        return int(self._kdtree.query([x, y])[1])

    def euclidean(self, u: int, v: int) -> float:
        """Straight-line distance in meters between two vertices."""
        if self.coords is None:
            raise GraphError("road network has no coordinates")
        return float(np.hypot(*(self.coords[u] - self.coords[v])))

    def connected_components(self) -> np.ndarray:
        """Component label per vertex (via scipy csgraph)."""
        from scipy.sparse.csgraph import connected_components

        return connected_components(self.to_scipy_csr(), directed=False)[1]

    def is_connected(self) -> bool:
        """Whether the graph is a single connected component."""
        from scipy.sparse.csgraph import connected_components

        return connected_components(self.to_scipy_csr(), directed=False)[0] == 1

    def largest_component(self) -> "RoadNetwork":
        """The subgraph induced by the largest connected component.

        Vertices are relabeled densely; coordinates are carried over.
        """
        labels = self.connected_components()
        counts = np.bincount(labels)
        keep = labels == int(np.argmax(counts))
        remap = -np.ones(self.num_vertices, dtype=np.int64)
        remap[keep] = np.arange(int(keep.sum()))
        edges = [
            (remap[u], remap[v], w)
            for u, v, w in self.iter_edges()
            if keep[u] and keep[v]
        ]
        coords = self.coords[keep] if self.coords is not None else None
        return RoadNetwork(int(keep.sum()), edges, coords=coords)

    def __repr__(self) -> str:
        return (
            f"RoadNetwork(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )


def build_from_arrays(
    num_vertices: int,
    us: Sequence[int],
    vs: Sequence[int],
    ws: Sequence[float],
    coords: np.ndarray | None = None,
) -> RoadNetwork:
    """Build a :class:`RoadNetwork` from parallel edge arrays."""
    return RoadNetwork(num_vertices, zip(us, vs, ws), coords=coords)
