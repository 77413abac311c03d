"""Sharded-dispatch solve benchmark (``BENCH_shard.json``).

Builds one large synthetic batch flush — a city, a fleet with reported
grid positions, and a window's worth of requests quoted into a single
cost matrix via the batched ``quote_batch`` plane — then times the
*per-flush assignment solve* under the sharding subsystem
(:mod:`repro.dispatch.sharding`) across shard counts and executor
backends.

Two properties are recorded per run and gated by
``benchmarks/test_sharded_dispatch.py``:

* ``shards=1`` on the serial backend returns exactly the pairs of the
  global :func:`~repro.dispatch.solver.solve_assignment` (bit-identical
  fallback);
* per-flush solve wall time improves with shard count: the Hungarian
  solve is O(n^3), so k balanced shards cut solve work ~k^2-fold before
  any parallelism — the serial backend already shows the win; the
  process backend only adds concurrency on top.

Run from the shell::

    PYTHONPATH=src python -m repro.bench.shard            # full run
    PYTHONPATH=src python -m repro.bench.shard --fast     # CI smoke
    PYTHONPATH=src python -m repro.bench.shard --out path/to.json
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time as _time

import numpy as np

from repro.bench.trend import attach_series
from repro.core.matching import Dispatcher
from repro.dispatch.costs import build_cost_matrix
from repro.dispatch.sharding import ShardExecutor, ShardPartitioner, solve_sharded
from repro.dispatch.solver import solve_assignment
from repro.roadnet.engine import make_engine
from repro.roadnet.generators import grid_city
from repro.sim.config import SimulationConfig
from repro.sim.fleet import build_fleet
from repro.sim.workload import ShanghaiLikeWorkload
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid_index import GridIndex

#: Default output file name, written to the current working directory
#: (the repo root under both the CI smoke step and the benchmark suite).
DEFAULT_OUT = "BENCH_shard.json"


def build_flush(
    grid_side: int = 28,
    num_vehicles: int = 200,
    num_requests: int = 180,
    max_wait_s: float = 120.0,
    detour_epsilon: float = 0.2,
    cell_meters: float = 500.0,
    seed: int = 11,
):
    """One synthetic batch flush, matrix already quoted.

    The waiting-time budget is kept tight so grid-index candidate discs
    stay *local* — the regime sharding targets: a request's feasible
    vehicles cluster around its pickup instead of spanning the city.
    Returns ``(matrix, grid_index, coords)``.
    """
    city = grid_city(grid_side, grid_side, seed=seed)
    engine = make_engine(city, "matrix")
    config = SimulationConfig(
        num_vehicles=num_vehicles, algorithm="kinetic", seed=seed
    )
    agents = build_fleet(engine, config, start_time=0.0)
    coords = city.coords
    bounds = BoundingBox(
        float(np.min(coords[:, 0])),
        float(np.min(coords[:, 1])),
        float(np.max(coords[:, 0])),
        float(np.max(coords[:, 1])),
    )
    grid = GridIndex(bounds, cell_meters=cell_meters)
    for agent in agents:
        x, y = agent.vehicle.position_at(0.0, city)
        grid.update(agent.vehicle.vehicle_id, x, y)
    dispatcher = Dispatcher(
        engine, agents, grid_index=grid, staleness_seconds=60.0
    )
    specs = ShanghaiLikeWorkload(
        city, seed=seed, min_trip_meters=1000.0
    ).generate(num_trips=num_requests, duration_seconds=3600.0)
    requests = []
    for spec in specs:
        request = dispatcher.make_request(
            spec.origin, spec.destination, 0.0, max_wait_s, detour_epsilon
        )
        if request is not None:
            requests.append(request)
    matrix = build_cost_matrix(dispatcher, requests, 0.0)
    return matrix, grid, coords


def _time_sharded(keys, plan, backend: str, repeats: int):
    """Best-of-``repeats`` sharded solve; returns (seconds, outcome)."""
    best = float("inf")
    outcome = None
    with ShardExecutor(backend) as executor:
        if backend != "serial":
            # Pool spin-up is amortized across a simulation's thousands
            # of flushes; warm it before timing one.
            executor.run([(0, np.zeros((1, 1)))])
        for _ in range(repeats):
            t0 = _time.perf_counter()
            outcome = solve_sharded(keys, plan, executor)
            best = min(best, _time.perf_counter() - t0)
    return best, outcome


def run_shard_bench(
    out_path: str | None = DEFAULT_OUT,
    shard_counts=(1, 2, 4, 8),
    backends=("serial", "process"),
    repeats: int = 5,
    **flush_kwargs,
) -> dict:
    """Benchmark the sharded solve across shard counts and backends;
    return (and optionally write) the result document."""
    matrix, grid, coords = build_flush(**flush_kwargs)
    keys = matrix.keys
    m, n = matrix.shape

    t0 = _time.perf_counter()
    global_pairs = solve_assignment(keys)
    global_seconds = _time.perf_counter() - t0

    runs: dict[str, dict[str, dict]] = {}
    serial_baseline = None

    for backend in backends:
        runs[backend] = {}
        for count in shard_counts:
            plan = ShardPartitioner(count).plan(
                matrix, grid_index=grid, coords=coords
            )
            seconds, outcome = _time_sharded(keys, plan, backend, repeats)
            if backend == "serial" and count == 1:
                serial_baseline = seconds
            runs[backend][str(count)] = {
                "per_flush_seconds": seconds,
                "num_shards_solved": outcome.num_shards,
                "shard_sizes": outcome.shard_sizes,
                "boundary_conflicts": outcome.boundary_conflicts,
                "pairs_matched": len(outcome.pairs),
                "matches_global": outcome.pairs == global_pairs,
            }
    if serial_baseline:
        for cells in runs.values():
            for cell in cells.values():
                seconds = cell["per_flush_seconds"]
                cell["speedup_vs_serial_1"] = (
                    serial_baseline / seconds if seconds else 0.0
                )

    # The effective flush parameters, derived from build_flush's own
    # signature so the recorded workload can never drift from the one
    # actually built.
    effective = {
        name: flush_kwargs.get(name, parameter.default)
        for name, parameter in inspect.signature(build_flush).parameters.items()
    }
    result = {
        "benchmark": "sharded_dispatch_flush",
        "workload": {
            "rows": m,
            "cols": n,
            "finite_fraction": round(
                float(np.isfinite(keys).mean()) if keys.size else 0.0, 4
            ),
            "repeats": repeats,
            **effective,
        },
        "global_solve": {
            "seconds": global_seconds,
            "pairs_matched": len(global_pairs),
        },
        "runs": runs,
    }
    attach_series(result)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result


def render(result: dict) -> str:
    """Fixed-width table of one :func:`run_shard_bench` document."""
    w = result["workload"]
    lines = [
        "== sharded_dispatch: per-flush solve wall time by shard count ==",
        f"{'backend':8s} | {'shards':>6s} | {'solve_ms':>9s} | "
        f"{'speedup':>7s} | {'conflicts':>9s} | {'matched':>7s}",
        "-" * 60,
    ]
    for backend, cells in result["runs"].items():
        for count, cell in sorted(cells.items(), key=lambda kv: int(kv[0])):
            flag = "" if cell["matches_global"] or int(count) > 1 else " !"
            lines.append(
                f"{backend:8s} | {count:>6s} | "
                f"{cell['per_flush_seconds'] * 1000:>9.3f} | "
                f"{cell.get('speedup_vs_serial_1', 0.0):>6.2f}x | "
                f"{cell['boundary_conflicts']:>9d} | "
                f"{cell['pairs_matched']:>7d}{flag}"
            )
    lines.append(
        f"note: {w['rows']} requests x {w['cols']} candidate vehicles "
        f"({w['finite_fraction']:.0%} finite), one flush on a "
        f"{w['grid_side']}x{w['grid_side']} grid city"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.shard",
        description="Time the sharded per-flush assignment solve.",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        help=f"output JSON path (default ./{DEFAULT_OUT})",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI smoke mode: smaller flush, serial backend only",
    )
    args = parser.parse_args(argv)
    if args.fast:
        result = run_shard_bench(
            out_path=args.out,
            shard_counts=(1, 2, 4),
            backends=("serial",),
            repeats=2,
            grid_side=20,
            num_vehicles=70,
            num_requests=60,
            max_wait_s=90.0,
        )
    else:
        result = run_shard_bench(out_path=args.out)
    print(render(result))
    print(f"wrote {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
