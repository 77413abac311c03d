"""Command-line simulation runner.

Run a full ridesharing simulation on a generated city from the shell::

    python -m repro.sim --vehicles 50 --trips 200 --algorithm kinetic
    python -m repro.sim --algorithm mip --trips 40 --constraints 5:10
    python -m repro.sim --capacity unlimited --hotspot-theta 40
    python -m repro.sim --dispatch-policy lap --batch-window 15
    python -m repro.sim --dispatch-policy lap --batch-window 10 --carry-over
    python -m repro.sim --engine hub_label --vehicles 40

Prints the Section VI metrics (ACRT, ART buckets, occupancy, service
rate) and the service-guarantee audit.
"""

from __future__ import annotations

import argparse
import sys

from repro.algorithms.base import ALGORITHM_REGISTRY
from repro.core.constraints import ConstraintConfig
from repro.dispatch.policies import POLICY_REGISTRY
from repro.roadnet.engine import ENGINE_KINDS, make_engine
from repro.roadnet.generators import grid_city
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.workload import ShanghaiLikeWorkload


def parse_constraints(text: str) -> ConstraintConfig:
    """Parse ``"<wait minutes>:<detour percent>"``, e.g. ``"10:20"``."""
    try:
        wait, pct = text.split(":")
        return ConstraintConfig.from_minutes(float(wait), float(pct))
    except (ValueError, TypeError) as error:
        raise argparse.ArgumentTypeError(
            f"constraints must look like '10:20' (min:percent), got {text!r}"
        ) from error


def parse_capacity(text: str) -> int | None:
    if text.lower() in ("unlimited", "unlim", "none"):
        return None
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Run a ridesharing simulation on a synthetic city.",
    )
    parser.add_argument("--grid", type=int, default=25, help="city grid side")
    parser.add_argument("--vehicles", type=int, default=30)
    parser.add_argument("--trips", type=int, default=120)
    parser.add_argument("--hours", type=float, default=1.0)
    parser.add_argument(
        "--algorithm",
        default="kinetic",
        choices=sorted(ALGORITHM_REGISTRY),
    )
    parser.add_argument(
        "--tree-mode", default="slack", choices=("basic", "slack")
    )
    parser.add_argument("--hotspot-theta", type=float, default=None)
    parser.add_argument("--capacity", type=parse_capacity, default=4)
    parser.add_argument(
        "--constraints",
        type=parse_constraints,
        default=ConstraintConfig.from_minutes(10, 20),
        help="wait:detour, e.g. 10:20 for 10 min / 20%%",
    )
    parser.add_argument(
        "--engine",
        default="auto",
        choices=ENGINE_KINDS,
        help="shortest-path engine backing the run (auto = matrix for "
        "small cities, dijkstra otherwise)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-trip-meters", type=float, default=1000.0,
        help="discard shorter generated trips",
    )
    parser.add_argument(
        "--dispatch-policy",
        default="greedy",
        choices=sorted(POLICY_REGISTRY),
        help="batch assignment policy (repro.dispatch)",
    )
    parser.add_argument(
        "--batch-window", type=float, default=0.0,
        help="batch window seconds; 0 = immediate per-request dispatch",
    )
    parser.add_argument(
        "--assignment-rounds", type=int, default=3,
        help="max LAP rounds for the iterative policy",
    )
    parser.add_argument(
        "--carry-over", action="store_true",
        help="requests that lose a flush re-enter the next window "
        "(bounded by their wait budget) instead of settling in-batch",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record structured per-flush spans (repro.obs) and write "
        "them as Chrome trace-event JSONL (Perfetto-loadable); telemetry "
        "never feeds dispatch, so results are bit-identical",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics registry (p50/p90/p99 latency "
        "histograms) as metrics.json",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    city = grid_city(args.grid, args.grid, seed=args.seed)
    engine = make_engine(city, args.engine)
    trips = ShanghaiLikeWorkload(
        city, seed=args.seed, min_trip_meters=args.min_trip_meters
    ).generate(num_trips=args.trips, duration_seconds=args.hours * 3600.0)

    config = SimulationConfig(
        num_vehicles=args.vehicles,
        capacity=args.capacity,
        constraints=args.constraints,
        algorithm=args.algorithm,
        tree_mode=args.tree_mode,
        hotspot_theta=args.hotspot_theta,
        engine_kind=args.engine,
        dispatch_policy=args.dispatch_policy,
        batch_window_s=args.batch_window,
        assignment_rounds=args.assignment_rounds,
        carry_over=args.carry_over,
        trace=args.trace_out is not None,
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
        seed=args.seed,
    )
    print(
        f"city {city.num_vertices}v/{city.num_edges}e | "
        f"engine {getattr(engine, 'kind', args.engine)} | "
        f"{args.vehicles} vehicles ({args.algorithm}) | "
        f"{len(trips)} trips | {args.constraints.label} | "
        f"capacity {'unlim' if args.capacity is None else args.capacity}"
    )
    report = simulate(engine, config, trips)

    print("\nsummary:")
    for key, value in report.summary().items():
        print(f"  {key:24s} {value}")
    print("\nART by active requests:")
    for bucket, hist in report.art_by_active().items():
        print(
            f"  {bucket:2d} active: {hist.mean * 1000:9.3f} ms "
            f"({hist.count} quotes)"
        )
    if config.trace_out:
        print(f"\ntrace written to {config.trace_out}")
    if config.metrics_out:
        print(f"metrics written to {config.metrics_out}")
    violations = report.verify_service_guarantees()
    print(f"\nservice-guarantee audit: {len(violations)} violation(s)")
    for line in violations[:10]:
        print("  " + line)
    print(f"decision digest: {report.decision_digest()}")
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
