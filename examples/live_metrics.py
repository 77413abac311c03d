"""Watch a rush hour arrive: the live-ops telemetry plane in action.

Runs one batched LAP simulation over a bimodal workload (a lull, then
a surge) with every live feature on — windowed time series, rolling
quantiles, the SLO engine, the resource monitor, the ``[live]``
console reporter — then renders the written JSONL rows as a rolling
dashboard and prints the service-guarantee verdict, burn alerts
included. The surge is the point: watch ``service`` dip and the
``wait_p99`` burn rate spike as the fleet saturates, then recover.

Run:  python examples/live_metrics.py [--vehicles N] [--peak-trips N]
      python examples/live_metrics.py --out ts.jsonl --slo-out slo.json
"""

import argparse
import json
import os
import tempfile

from repro import SimulationConfig, grid_city, make_engine, simulate
from repro.core.constraints import ConstraintConfig
from repro.sim.workload import bimodal_trips

SLO = "service_rate>=0.6,wait_compliance>=0.6,wait_p99<=600"


def bar(fraction: float, width: int = 20) -> str:
    """A terminal bar: ``##########----------``."""
    filled = max(0, min(width, round(fraction * width)))
    return "#" * filled + "-" * (width - filled)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vehicles", type=int, default=10)
    parser.add_argument("--offpeak-trips", type=int, default=30)
    parser.add_argument("--peak-trips", type=int, default=120)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--window", type=float, default=120.0)
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="keep the time-series JSONL here (default: temp file)",
    )
    parser.add_argument(
        "--slo-out", default=None, metavar="PATH",
        help="also keep the machine-readable slo.json",
    )
    args = parser.parse_args()

    ts_path = args.out or os.path.join(
        tempfile.mkdtemp(prefix="live_metrics_"), "ts.jsonl"
    )
    city = grid_city(24, 24, seed=args.seed)
    trips, split = bimodal_trips(
        city,
        seed=args.seed,
        offpeak_s=1200.0,
        peak_s=600.0,
        offpeak_trips=args.offpeak_trips,
        peak_trips=args.peak_trips,
        min_trip_meters=1200.0,
    )
    config = SimulationConfig(
        num_vehicles=args.vehicles,
        algorithm="kinetic",
        constraints=ConstraintConfig.from_minutes(6, 20),
        dispatch_policy="lap",
        batch_window_s=12.0,
        seed=args.seed,
        timeseries_out=ts_path,
        timeseries_window_s=args.window,
        timeseries_ring=3,
        slo=SLO,
        slo_out=args.slo_out,
        live_report_every=1,
        resource_monitor=True,
    )
    print(
        f"city {city.num_vertices} vertices | fleet {args.vehicles} | "
        f"{len(trips)} requests (lull then surge at {split:.0f}s) | "
        f"SLO {SLO}"
    )
    print("live console feed (one line per window):")
    report = simulate(make_engine(city), config, trips)

    with open(ts_path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]

    print(f"\nrolling dashboard ({len(rows)} windows of {args.window:.0f}s):")
    print(
        f"{'win':>4} {'t':>11} {'settled':>7}  "
        f"{'service rate':<27} {'roll p99':>9}  rss"
    )
    for row in rows:
        counters = row["counters"]
        settled = counters.get("requests.settled", 0)
        assigned = counters.get("requests.assigned", 0)
        rate = assigned / settled if settled else None
        rolling = row["rolling"].get("assign.latency_s")
        p99 = f"{rolling['p99']:8.1f}s" if rolling else f"{'--':>9}"
        rss = row["gauges"].get("resource.rss_bytes")
        rss_part = f"{rss / 2 ** 20:5.0f}MiB" if rss else "     --"
        rate_part = (
            f"{bar(rate)} {rate:5.0%}" if rate is not None else f"{'--':>26}"
        )
        print(
            f"{row['window']:>4} {row['t_start']:5.0f}..{row['t_end']:5.0f} "
            f"{settled:>7}  {rate_part} {p99}  {rss_part}"
        )

    slo = report.extra["slo"]
    verdict = "PASS" if slo["pass"] else "FAIL"
    print(
        f"\nSLO verdict: {verdict} over {slo['num_windows']} windows "
        f"({slo['alert_windows']} burn-alert windows)"
    )
    for objective in slo["objectives"]:
        state = {True: "pass", False: "FAIL", None: "no data"}[
            objective["overall_pass"]
        ]
        worst = objective["worst_fast_burn"]
        print(
            f"  {objective['label']:<24} overall "
            f"{objective['overall_value']} -> {state:7} | "
            f"windows {objective['windows']['pass']}p/"
            f"{objective['windows']['fail']}f/"
            f"{objective['windows']['no_data']}n | "
            f"burn alerts {objective['burn_alerts']} "
            f"(worst fast burn {worst})"
        )
    if args.slo_out:
        print(f"\nslo verdict written to {args.slo_out}")
    print(f"time series written to {ts_path}")


if __name__ == "__main__":
    main()
