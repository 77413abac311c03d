"""Bring your own road network.

Shows the full substrate surface: build a network from raw edge data,
save/load it, choose among the three shortest-path engines (APSP matrix,
cached Dijkstra — the paper's configuration for the full Shanghai graph —
and hub labeling), and inspect cache effectiveness on a skewed query
stream.

Run:  python examples/custom_network.py
"""

import tempfile
import time

import numpy as np

from repro import (
    DijkstraEngine,
    HubLabelEngine,
    MatrixEngine,
    RoadNetwork,
    ring_radial_city,
)
from repro.roadnet.io import load_npz, save_npz


def build_manual_network() -> RoadNetwork:
    """A tiny hand-made district: two avenues joined by side streets.

    Edge weights are travel times in seconds.
    """
    edges = [
        (0, 1, 20.0), (1, 2, 25.0), (2, 3, 20.0),          # north avenue
        (4, 5, 22.0), (5, 6, 18.0), (6, 7, 24.0),          # south avenue
        (0, 4, 30.0), (1, 5, 28.0), (2, 6, 35.0), (3, 7, 30.0),  # side streets
    ]
    coords = np.array(
        [[0, 0], [300, 0], [650, 0], [950, 0],
         [0, 400], [310, 400], [580, 400], [930, 400]],
        dtype=float,
    )
    return RoadNetwork(8, edges, coords=coords)


def main() -> None:
    district = build_manual_network()
    print(f"manual district: {district}")
    print(f"  d(0, 7) via Dijkstra engine: "
          f"{DijkstraEngine(district).distance(0, 7):.0f}s")

    with tempfile.NamedTemporaryFile(suffix=".npz") as handle:
        save_npz(district, handle.name)
        reloaded = load_npz(handle.name)
        print(f"  saved + reloaded: {reloaded.num_edges} edges intact\n")

    # A bigger generated city for the engine comparison.
    city = ring_radial_city(rings=12, spokes=24, seed=1)
    print(f"ring-radial city: {city}")
    rng = np.random.default_rng(0)
    hot = rng.integers(0, city.num_vertices, size=40)
    queries = [
        (int(rng.choice(hot)), int(rng.choice(hot)))
        if rng.random() < 0.8
        else tuple(int(x) for x in rng.integers(0, city.num_vertices, 2))
        for _ in range(4000)
    ]

    engines = {
        "matrix (APSP)": MatrixEngine(city),
        "dijkstra + row LRU": DijkstraEngine(city),
        "hub labels": HubLabelEngine(city),
    }
    print(f"\n{'engine':22s} {'queries/s':>12s} {'notes'}")
    for name, engine in engines.items():
        started = time.perf_counter()
        for s, e in queries:
            engine.distance(s, e)
        rate = len(queries) / (time.perf_counter() - started)
        notes = ""
        stats = engine.stats()
        if "row_hit_rate" in stats:
            notes = f"row cache hit rate {stats['row_hit_rate']:.2f}"
        if "average_label_size" in stats:
            notes = f"avg label size {stats['average_label_size']:.1f}"
        print(f"{name:22s} {rate:12,.0f} {notes}")

    # Exactness cross-check, the invariant everything above relies on.
    reference = engines["matrix (APSP)"]
    for s, e in queries[:200]:
        assert abs(engines["hub labels"].distance(s, e) - reference.distance(s, e)) < 1e-6
    print("\nall engines agree on every checked query.")


if __name__ == "__main__":
    main()
