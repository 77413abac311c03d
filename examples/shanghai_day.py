"""A scaled Shanghai-like service day, end to end.

Reproduces the paper's experimental setup in miniature: a street-grid
city, a rush-hour request stream calibrated to the paper's
trips-per-taxi ratio, a fleet of kinetic-tree vehicles behind the grid
index, and the ACRT / ART / occupancy metrics of Section VI — plus the
service-guarantee audit.

Run:  python examples/shanghai_day.py [--vehicles N] [--hours H]
"""

import argparse

from repro import (
    ConstraintConfig,
    ShanghaiLikeWorkload,
    SimulationConfig,
    grid_city,
    make_engine,
    simulate,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vehicles", type=int, default=40)
    parser.add_argument("--hours", type=float, default=2.0)
    parser.add_argument("--capacity", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    city = grid_city(32, 32, seed=args.seed)
    engine = make_engine(city)
    workload = ShanghaiLikeWorkload(city, seed=args.seed, min_trip_meters=1200.0)
    trips = workload.generate_for_fleet(
        num_vehicles=args.vehicles,
        duration_seconds=args.hours * 3600.0,
    )
    print(
        f"city {city.num_vertices} vertices | fleet {args.vehicles} | "
        f"{len(trips)} requests over {args.hours:.1f}h (paper ratio)"
    )

    config = SimulationConfig(
        num_vehicles=args.vehicles,
        capacity=args.capacity,
        constraints=ConstraintConfig.from_minutes(10, 20),
        algorithm="kinetic",
        seed=args.seed,
    )
    report = simulate(engine, config, trips)

    print("\n--- service day report ---")
    for key, value in report.summary().items():
        print(f"{key:24s} {value}")

    print("\nART by active requests (ms):")
    for bucket, hist in report.art_by_active().items():
        print(f"  {bucket:2d} active: {hist.mean * 1000:8.3f} ms "
              f"({hist.count} quotes)")

    violations = report.verify_service_guarantees()
    print(f"\nservice-guarantee audit: {len(violations)} violations")
    for line in violations[:5]:
        print("  " + line)


if __name__ == "__main__":
    main()
