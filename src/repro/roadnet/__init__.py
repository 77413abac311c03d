"""Road-network substrate: graphs, shortest paths, caches and generators.

The paper's algorithms interact with the road network exclusively through
shortest-path distances ``d(u, v)`` and shortest paths. This subpackage
provides:

* :class:`~repro.roadnet.graph.RoadNetwork` — a compact CSR adjacency
  representation of an undirected weighted road graph;
* four interchangeable shortest-path engines
  (:class:`~repro.roadnet.engine.DijkstraEngine`,
  :class:`~repro.roadnet.matrix.MatrixEngine`,
  :class:`~repro.roadnet.hub_labeling.HubLabelEngine`,
  :class:`~repro.roadnet.astar.AStarEngine`) behind one protocol: the
  kinetic tree reads the scalar ``distance``, the dispatcher's fleet
  screens the batched ``distance_many``;
* exact Dijkstra in C, one ``scipy.sparse.csgraph`` row per source
  (:mod:`repro.roadnet.dijkstra`), and the paper's LRU cache holding
  those rows for the Dijkstra engine (:mod:`repro.roadnet.cache`);
* synthetic city generators standing in for the Shanghai road network
  (:mod:`repro.roadnet.generators`).
"""

from repro.roadnet.astar import (
    AStarEngine,
    EuclideanHeuristic,
    LandmarkHeuristic,
    astar_distance,
    astar_path,
)
from repro.roadnet.cache import LRUCache
from repro.roadnet.dijkstra import (
    dijkstra_distance,
    dijkstra_path,
    shortest_path_rows,
    vertices_within,
)
from repro.roadnet.engine import (
    ENGINE_KINDS,
    DijkstraEngine,
    ShortestPathEngine,
    distance_many_fallback,
    make_engine,
)
from repro.roadnet.generators import grid_city, random_geometric_city, ring_radial_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.hub_labeling import HubLabelEngine, HubLabels
from repro.roadnet.matrix import MatrixEngine

__all__ = [
    "RoadNetwork",
    "AStarEngine",
    "EuclideanHeuristic",
    "LandmarkHeuristic",
    "astar_distance",
    "astar_path",
    "LRUCache",
    "dijkstra_distance",
    "dijkstra_path",
    "shortest_path_rows",
    "vertices_within",
    "ShortestPathEngine",
    "DijkstraEngine",
    "MatrixEngine",
    "HubLabels",
    "HubLabelEngine",
    "ENGINE_KINDS",
    "distance_many_fallback",
    "make_engine",
    "grid_city",
    "ring_radial_city",
    "random_geometric_city",
]
