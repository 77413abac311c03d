"""Sharded batch dispatch on a Shanghai-like workload.

Runs the same fleet and request stream under the global ``lap`` policy
and the ``sharded`` policy (the lap solve federated over grid-region
shards, :mod:`repro.dispatch.sharding`), showing that sharding keeps the
matching quality of the global solve while splitting each flush's
LAP solve into concurrent regional blocks — plus the new
per-shard metrics (shard sizes, in-worker solve times, boundary
conflicts) the report exposes.

Run:  python examples/sharded_dispatch.py [--vehicles N] [--hours H]
      [--shards K] [--backend serial|process]
"""

import argparse

from repro import (
    ShanghaiLikeWorkload,
    SimulationConfig,
    grid_city,
    make_engine,
    simulate,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vehicles", type=int, default=12)
    parser.add_argument("--hours", type=float, default=1.0)
    parser.add_argument("--window", type=float, default=15.0)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--backend", default="process",
        choices=("serial", "process"),
    )
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
        f"window {args.window:.0f}s | {args.shards} shards "
        f"({args.backend} backend)"
    )

    cells = [
        ("lap (global solve)", {"dispatch_policy": "lap"}),
        (
            f"sharded x{args.shards}",
            {
                "dispatch_policy": "sharded",
                "num_shards": args.shards,
                "shard_backend": args.backend,
            },
        ),
    ]
    reports = {}
    for label, overrides in cells:
        config = SimulationConfig(
            num_vehicles=args.vehicles,
            algorithm="kinetic",
            seed=args.seed,
            batch_window_s=args.window,
            **overrides,
        )
        report = simulate(engine, config, trips)
        reports[label] = report
        violations = report.verify_service_guarantees()
        assert not violations, violations[:3]
        print(
            f"\n{label}: service_rate {report.service_rate:.3f} | "
            f"assigned {report.num_assigned} | "
            f"solver_ms mean {report.solver_seconds.mean * 1000:.3f}"
        )

    print("\nboth policies passed the service-guarantee audit")
    sharded = reports[f"sharded x{args.shards}"]
    print("\nfull report for the sharded policy:")
    print(sharded.text_summary())


if __name__ == "__main__":
    main()
