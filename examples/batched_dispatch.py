"""Batched dispatch policies on a Shanghai-like workload.

Compares the paper's immediate per-request dispatch against the
rolling-window policies of :mod:`repro.dispatch` — greedy (sequential
cheapest quote), lap (one global request x vehicle linear assignment per
window) and iterative (repeated assignment rounds) — on the same fleet
and request stream: service rate, assignment cost, batch sizes, and the
wall time spent in the Hungarian solver.

Each batched flush quotes, solves and commits at its instant, against
the fleet as it stands (:mod:`repro.dispatch.quoting`). The window
length is fixed for the whole run; see
``examples/adaptive_window.py`` for load-driven window autotuning and
carry-over.

Run:  python examples/batched_dispatch.py [--vehicles N] [--hours H]
      [--window SECONDS]
"""

import argparse

from repro import (
    ShanghaiLikeWorkload,
    SimulationConfig,
    grid_city,
    make_engine,
    simulate,
)

POLICIES = [
    ("greedy  (immediate)", "greedy", 0.0),
    ("greedy  (batched)", "greedy", None),
    ("lap", "lap", None),
    ("iterative", "iterative", None),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vehicles", type=int, default=12)
    parser.add_argument("--hours", type=float, default=1.0)
    parser.add_argument("--window", type=float, default=15.0,
                        help="batch window in seconds (batched policies)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    city = grid_city(30, 30, seed=args.seed)
    engine = make_engine(city)
    workload = ShanghaiLikeWorkload(city, seed=args.seed, min_trip_meters=1500.0)
    trips = workload.generate(
        num_trips=int(30 * args.vehicles * args.hours),
        duration_seconds=args.hours * 3600.0,
    )
    print(
        f"city {city.num_vertices} vertices | fleet {args.vehicles} | "
        f"{len(trips)} requests over {args.hours:.1f}h | "
        f"window {args.window:.0f}s"
    )

    header = (
        f"{'policy':22s} {'rate':>6s} {'assigned':>8s} {'cost_s':>10s} "
        f"{'batch':>6s} {'solver_ms':>9s}"
    )
    print("\n" + header)
    print("-" * len(header))
    reports = {}
    for label, policy, window in POLICIES:
        config = SimulationConfig(
            num_vehicles=args.vehicles,
            algorithm="kinetic",
            seed=args.seed,
            dispatch_policy=policy,
            batch_window_s=args.window if window is None else window,
        )
        report = simulate(engine, config, trips)
        reports[label] = report
        violations = report.verify_service_guarantees()
        assert not violations, violations[:3]
        print(
            f"{label:22s} {report.service_rate:6.3f} "
            f"{report.num_assigned:8d} "
            f"{report.total_assignment_cost:10,.0f} "
            f"{report.batch_sizes.mean:6.2f} "
            f"{report.solver_seconds.mean * 1000:9.3f}"
        )

    print("\nall policies passed the service-guarantee audit")
    best = max(reports, key=lambda k: reports[k].service_rate)
    print(f"best service rate: {best.strip()} "
          f"({reports[best].service_rate:.3f})")
    print("\nfull report for the lap policy:")
    print(reports["lap"].text_summary())


if __name__ == "__main__":
    main()
