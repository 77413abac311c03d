"""Trace a rush-hour flush pipeline and read where the time went.

Runs one batched LAP simulation on a bimodal workload (a lull, then a
surge) with tracing on, then analyzes the collected spans in-process:
the per-stage time breakdown (where does flush time go?) and the
slowest flushes decomposed into their quote/solve/commit children —
exactly what ``tools/trace_report.py`` prints from a trace file, plus
the registry's p50/p99 assignment latency.

Run:  python examples/trace_flush.py [--vehicles N] [--peak-trips N]
      python examples/trace_flush.py --trace-out trace.jsonl   # then
      open the file at https://ui.perfetto.dev
"""

import argparse

from repro import SimulationConfig, grid_city, make_engine, simulate
from repro.core.constraints import ConstraintConfig
from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.obs.report import (
    render_slowest,
    render_stage_table,
    slowest_flushes,
    stage_breakdown,
)
from repro.sim.workload import bimodal_trips


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vehicles", type=int, default=10)
    parser.add_argument("--offpeak-trips", type=int, default=30)
    parser.add_argument("--peak-trips", type=int, default=120)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="also write the spans as Perfetto-loadable JSONL",
    )
    args = parser.parse_args()

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
        trace=True,
    )
    print(
        f"city {city.num_vertices} vertices | fleet {args.vehicles} | "
        f"{len(trips)} requests (lull then surge at {split:.0f}s) | "
        f"tracing on"
    )
    report = simulate(make_engine(city), config, trips)
    violations = report.verify_service_guarantees()
    print(
        f"assigned {report.num_assigned}/{report.num_requests} | "
        f"service-guarantee audit: {len(violations)} violations"
    )

    events = chrome_trace_events(report.tracer.records())
    print(f"\n{len(events)} spans collected — where flush time goes:\n")
    print(render_stage_table(stage_breakdown(events)))

    print("\nslowest flushes (quote/solve/commit decomposition):")
    print(render_slowest(slowest_flushes(events, top=3)))

    latency = report.registry.histogram("assign.latency_s")
    print(
        f"\nassignment latency: p50 {latency.quantile(0.50):.2f}s  "
        f"p99 {latency.quantile(0.99):.2f}s  "
        f"(request time -> commit, over {latency.count} assignments)"
    )

    if args.trace_out:
        count = write_chrome_trace(report.tracer.records(), args.trace_out)
        print(
            f"\n{count} events written to {args.trace_out} — open it at "
            f"https://ui.perfetto.dev"
        )


if __name__ == "__main__":
    main()
