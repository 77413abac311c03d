"""Synthetic road-network generators.

The paper evaluates on the Shanghai road network (122,319 vertices,
188,426 edges), which is not redistributable. These generators produce
street-like planar graphs with controllable size and irregularity; all
matching algorithms interact with the network only through shortest-path
distances, so any connected street-like graph exercises the same code
paths (see README.md, "Deviations from the paper").

All edge weights are travel times in seconds at the paper's constant
14 m/s, derived from generated street lengths in meters.
"""

from __future__ import annotations

import numpy as np

from repro.constants import SPEED_MPS
from repro.roadnet.graph import RoadNetwork


def _street_seconds(rng: np.random.Generator, mean_meters: float, n: int) -> np.ndarray:
    """Street traversal times drawn from a lognormal street-length model."""
    sigma = 0.35
    mu = np.log(mean_meters) - sigma**2 / 2
    lengths = rng.lognormal(mu, sigma, size=n)
    return np.maximum(lengths, 10.0) / SPEED_MPS


def grid_city(
    rows: int,
    cols: int,
    *,
    block_meters: float = 200.0,
    irregularity: float = 0.1,
    seed: int | None = 0,
) -> RoadNetwork:
    """A Manhattan-style grid city.

    Parameters
    ----------
    rows, cols:
        Grid dimensions; the network has ``rows * cols`` vertices.
    block_meters:
        Mean street-segment length (Shanghai-like blocks default to 200 m).
    irregularity:
        Fraction of interior edges removed at random (dead ends, rivers,
        superblocks). Removal never disconnects the graph: only edges whose
        endpoints stay reachable through the remaining grid are dropped,
        enforced by keeping the boundary ring intact and bounding removal.
    seed:
        RNG seed for reproducibility.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid_city needs at least a 2x2 grid")
    if not 0.0 <= irregularity < 0.5:
        raise ValueError("irregularity must be in [0, 0.5)")
    rng = np.random.default_rng(seed)
    n = rows * cols

    def vid(r: int, c: int) -> int:
        return r * cols + c

    horizontal = [
        (vid(r, c), vid(r, c + 1)) for r in range(rows) for c in range(cols - 1)
    ]
    vertical = [
        (vid(r, c), vid(r + 1, c)) for r in range(rows - 1) for c in range(cols)
    ]
    pairs = horizontal + vertical
    weights = _street_seconds(rng, block_meters, len(pairs))

    if irregularity > 0:
        interior = [
            i
            for i, (u, v) in enumerate(pairs)
            if _is_interior(u, rows, cols) and _is_interior(v, rows, cols)
        ]
        n_drop = int(len(pairs) * irregularity)
        drop = set(
            rng.choice(interior, size=min(n_drop, len(interior)), replace=False).tolist()
        )
    else:
        drop = set()

    # Jittered planar coordinates in meters.
    jitter = rng.normal(0.0, block_meters * 0.08, size=(n, 2))
    base = np.array(
        [[c * block_meters, r * block_meters] for r in range(rows) for c in range(cols)]
    )
    coords = base + jitter

    edges = [
        (u, v, float(w))
        for i, ((u, v), w) in enumerate(zip(pairs, weights))
        if i not in drop
    ]
    network = RoadNetwork(n, edges, coords=coords)
    if not network.is_connected():
        network = network.largest_component()
    return network


def _is_interior(v: int, rows: int, cols: int) -> bool:
    r, c = divmod(v, cols)
    return 0 < r < rows - 1 and 0 < c < cols - 1


def ring_radial_city(
    rings: int,
    spokes: int,
    *,
    ring_spacing_meters: float = 600.0,
    seed: int | None = 0,
) -> RoadNetwork:
    """A ring-and-radial city (European style): concentric rings connected
    by radial avenues, plus a central hub vertex."""
    if rings < 1 or spokes < 3:
        raise ValueError("need >= 1 ring and >= 3 spokes")
    rng = np.random.default_rng(seed)
    n = 1 + rings * spokes
    coords = np.zeros((n, 2))
    edges: list[tuple[int, int, float]] = []

    def vid(ring: int, spoke: int) -> int:
        return 1 + ring * spokes + (spoke % spokes)

    for ring in range(rings):
        radius = (ring + 1) * ring_spacing_meters
        circumference_step = 2 * np.pi * radius / spokes
        for spoke in range(spokes):
            angle = 2 * np.pi * spoke / spokes
            coords[vid(ring, spoke)] = radius * np.array([np.cos(angle), np.sin(angle)])
            # Ring edge to the next spoke on the same ring.
            ring_len = circumference_step * rng.uniform(0.9, 1.1)
            edges.append((vid(ring, spoke), vid(ring, spoke + 1), ring_len / SPEED_MPS))
            # Radial edge inward.
            inward = 0 if ring == 0 else vid(ring - 1, spoke)
            radial_len = ring_spacing_meters * rng.uniform(0.9, 1.1)
            edges.append((vid(ring, spoke), inward, radial_len / SPEED_MPS))
    return RoadNetwork(n, edges, coords=coords)


def random_geometric_city(
    n: int,
    *,
    area_meters: float = 10_000.0,
    target_degree: float = 3.5,
    seed: int | None = 0,
) -> RoadNetwork:
    """An irregular street graph: ``n`` intersections uniform in a square,
    connected by a thinned Delaunay triangulation, trimmed to the largest
    component.

    Delaunay edges give a planar, well-connected scaffold (mean degree
    ~6); random thinning brings the mean intersection degree down to
    ``target_degree`` (real street networks sit near 3; Shanghai's is
    ~3.1) without fragmenting the graph the way a sub-percolation random
    geometric graph would."""
    from scipy.spatial import Delaunay

    if n < 10:
        raise ValueError("random_geometric_city needs n >= 10")
    if target_degree <= 2.0:
        raise ValueError("target_degree must exceed 2.0 to stay connected")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, area_meters, size=(n, 2))
    triangulation = Delaunay(coords)
    pairs = set()
    for simplex in triangulation.simplices:
        for a in range(3):
            u, v = int(simplex[a]), int(simplex[(a + 1) % 3])
            pairs.add((u, v) if u < v else (v, u))
    pairs = sorted(pairs)
    mean_degree = 2 * len(pairs) / n
    keep_probability = min(1.0, target_degree / mean_degree)
    kept = [p for p in pairs if rng.random() < keep_probability]
    edges = [
        (u, v, float(max(np.hypot(*(coords[u] - coords[v])), 1.0) / SPEED_MPS))
        for u, v in kept
    ]
    return RoadNetwork(n, edges, coords=coords).largest_component()
