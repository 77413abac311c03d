"""Command-line simulation runner.

Run a full ridesharing simulation on a generated city from the shell::

    python -m repro.sim --vehicles 50 --trips 200 --algorithm kinetic
    python -m repro.sim --algorithm mip --trips 40 --constraints 5:10
    python -m repro.sim --capacity unlimited --hotspot-theta 40
    python -m repro.sim --dispatch-policy lap --batch-window 15
    python -m repro.sim --dispatch-policy sharded --batch-window 15 \\
        --shards 4 --shard-backend process
    python -m repro.sim --dispatch-policy lap --batch-window 10 \\
        --adaptive-window --window-min 5 --window-max 30 --carry-over
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
from repro.dispatch.sharding import SHARD_BACKENDS
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
        "--adaptive-window", action="store_true",
        help="retune the batch window per flush from the observed "
        "arrival intensity (requires --window-min and --window-max; "
        "--batch-window is the initial value)",
    )
    parser.add_argument(
        "--window-min", type=float, default=None,
        help="adaptive clamp band lower bound in seconds",
    )
    parser.add_argument(
        "--window-max", type=float, default=None,
        help="adaptive clamp band upper bound in seconds",
    )
    parser.add_argument(
        "--carry-over", action="store_true",
        help="requests that lose a flush re-enter the next window "
        "(bounded by their wait budget) instead of settling in-batch",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="spatial shard count for the sharded policy (1 = global)",
    )
    parser.add_argument(
        "--shard-backend",
        default="serial",
        choices=SHARD_BACKENDS,
        help="per-shard solve executor for the sharded policy",
    )
    parser.add_argument(
        "--shard-boundary-cells", type=int, default=None,
        help="candidate-halo width in grid cells for the sharded policy "
        "(default: no halo, keep every feasible candidate)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record structured per-flush spans (repro.obs); "
        "telemetry never feeds dispatch, so results are bit-identical",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the spans as Chrome trace-event JSONL "
        "(Perfetto-loadable; implies --trace)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics registry (p50/p90/p99 latency "
        "histograms) as metrics.json",
    )
    parser.add_argument(
        "--timeseries-out", default=None, metavar="PATH",
        help="write one JSONL row per simulated-time window (throughput, "
        "counter deltas, histogram windows, rolling quantiles)",
    )
    parser.add_argument(
        "--timeseries-window", type=float, default=60.0, metavar="SECONDS",
        help="simulated seconds per live-telemetry window",
    )
    parser.add_argument(
        "--timeseries-ring", type=int, default=5, metavar="N",
        help="windows merged for rolling quantiles (and the SLO engine's "
        "slow burn rate)",
    )
    parser.add_argument(
        "--slo", default=None, metavar="SPEC",
        help="service-level objectives evaluated per window, e.g. "
        "'service_rate>=0.9,wait_p99<=300' "
        "(see docs/observability.md for the grammar)",
    )
    parser.add_argument(
        "--slo-out", default=None, metavar="PATH",
        help="write the machine-readable SLO verdict (slo.json; "
        "requires --slo)",
    )
    parser.add_argument(
        "--live-report", type=int, default=0, metavar="N",
        help="print a console status line every N completed telemetry "
        "windows (0 = never)",
    )
    parser.add_argument(
        "--resource-monitor", action="store_true",
        help="sample RSS and GC pauses into the registry once per "
        "telemetry window",
    )
    parser.add_argument(
        "--prom-out", default=None, metavar="PATH",
        help="write the final metrics registry in Prometheus text "
        "exposition format",
    )
    parser.add_argument(
        "--fault-spec", default=None, metavar="SPEC",
        help="deterministic fault-injection plan: comma-joined "
        "site:kind:trigger[:delay_s] clauses, e.g. "
        "'quote.task:crash:0.05,shard.solve:delay:0.02:0.5' "
        "(see docs/robustness.md for the grammar)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault injector's per-clause RNG streams",
    )
    parser.add_argument(
        "--flush-deadline", type=float, default=None, metavar="SECONDS",
        help="per-flush deadline budget in charged seconds (injected "
        "delays + retry backoffs); an exhausted flush downgrades to "
        "the greedy policy for that flush only",
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
        adaptive_window=args.adaptive_window,
        window_min_s=args.window_min,
        window_max_s=args.window_max,
        carry_over=args.carry_over,
        num_shards=args.shards,
        shard_backend=args.shard_backend,
        shard_boundary_cells=args.shard_boundary_cells,
        trace=args.trace or args.trace_out is not None,
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
        timeseries_out=args.timeseries_out,
        timeseries_window_s=args.timeseries_window,
        timeseries_ring=args.timeseries_ring,
        slo=args.slo,
        slo_out=args.slo_out,
        live_report_every=args.live_report,
        resource_monitor=args.resource_monitor,
        fault_spec=args.fault_spec,
        fault_seed=args.fault_seed,
        flush_deadline_s=args.flush_deadline,
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
    for bucket, stats in report.art.as_dict().items():
        print(
            f"  {bucket:2d} active: {stats['mean'] * 1000:9.3f} ms "
            f"({stats['count']} quotes)"
        )
    if config.trace_out:
        print(f"\ntrace written to {config.trace_out}")
    if config.metrics_out:
        print(f"metrics written to {config.metrics_out}")
    if config.timeseries_out:
        windows = report.extra.get("timeseries", {}).get("windows", 0)
        print(
            f"time series written to {config.timeseries_out} "
            f"({windows} windows)"
        )
    if args.prom_out:
        from repro.obs import write_prom_text

        write_prom_text(report.registry, args.prom_out)
        print(f"prometheus exposition written to {args.prom_out}")
    slo_document = report.extra.get("slo")
    if slo_document is not None:
        verdict = "PASS" if slo_document["pass"] else "FAIL"
        print(
            f"\nSLO verdict: {verdict} "
            f"({slo_document['num_windows']} windows, "
            f"{slo_document['alert_windows']} burn-alert windows)"
        )
        if config.slo_out:
            print(f"slo verdict written to {config.slo_out}")
    violations = report.verify_service_guarantees()
    print(f"\nservice-guarantee audit: {len(violations)} violation(s)")
    for line in violations[:10]:
        print("  " + line)
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
