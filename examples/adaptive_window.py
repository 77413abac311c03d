"""Adaptive batch windows riding out a rush hour.

Builds a bimodal request stream — a quiet spell, then a surge that
oversubscribes the fleet — and dispatches it three ways on the same
city: a short fixed window, a long fixed window, and the adaptive
controller with carry-over (:mod:`repro.dispatch.adaptive`). Prints the
phase-split latency/service numbers and the adaptive run's window
trajectory, which should hug the band floor during the lull and open to
the ceiling when the surge hits.

Run:  python examples/adaptive_window.py [--vehicles N] [--peak-trips N]
"""

import argparse

from repro import SimulationConfig, grid_city, make_engine, simulate
from repro.core.constraints import ConstraintConfig
from repro.sim.workload import bimodal_trips, phase_metrics

WINDOW_MIN, WINDOW_MAX = 3.0, 30.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vehicles", type=int, default=10)
    parser.add_argument("--offpeak-trips", type=int, default=40)
    parser.add_argument("--peak-trips", type=int, default=180)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()

    city = grid_city(28, 28, seed=args.seed)
    trips, split = bimodal_trips(
        city,
        seed=args.seed,
        offpeak_s=1400.0,
        peak_s=700.0,
        offpeak_trips=args.offpeak_trips,
        peak_trips=args.peak_trips,
        min_trip_meters=1500.0,
    )
    constraints = ConstraintConfig.from_minutes(6, 20)
    print(
        f"city {city.num_vertices} vertices | fleet {args.vehicles} | "
        f"{len(trips)} requests (lull then surge, boundary at {split:.0f}s)"
    )

    cells = [
        ("fixed short", dict(batch_window_s=WINDOW_MIN)),
        ("fixed long", dict(batch_window_s=WINDOW_MAX)),
        (
            "adaptive",
            dict(
                batch_window_s=WINDOW_MIN,
                adaptive_window=True,
                window_min_s=WINDOW_MIN,
                window_max_s=WINDOW_MAX,
                adaptive_target_batch=6.0,
                carry_over=True,
            ),
        ),
    ]
    header = (
        f"{'run':14s} {'off_lat_s':>9s} {'off_rate':>8s} "
        f"{'peak_lat_s':>10s} {'peak_rate':>9s} {'carried':>7s}"
    )
    print("\n" + header)
    print("-" * len(header))
    adaptive_report = None
    for label, overrides in cells:
        engine = make_engine(city)
        config = SimulationConfig(
            num_vehicles=args.vehicles,
            algorithm="kinetic",
            constraints=constraints,
            dispatch_policy="lap",
            seed=args.seed,
            **overrides,
        )
        report = simulate(engine, config, trips)
        violations = report.verify_service_guarantees()
        assert not violations, violations[:3]
        phases = phase_metrics(report, trips, split)
        print(
            f"{label:14s} {phases['offpeak_latency_s']:9.2f} "
            f"{phases['offpeak_service_rate']:8.3f} "
            f"{phases['peak_latency_s']:10.2f} "
            f"{phases['peak_service_rate']:9.3f} "
            f"{report.carry_events:7d}"
        )
        if label == "adaptive":
            adaptive_report = report

    print("\nall runs passed the service-guarantee audit")
    print(
        f"\nadaptive window trajectory (band [{WINDOW_MIN:g}, "
        f"{WINDOW_MAX:g}]s, surge begins at {split:.0f}s):"
    )
    trajectory = adaptive_report.window_trajectory
    step = max(1, len(trajectory) // 24)
    scale = 40.0 / WINDOW_MAX
    for t, window, _overlap in trajectory[::step]:
        bar = "#" * max(1, int(window * scale))
        phase = "surge" if t >= split else "lull"
        print(f"  t={t:7.1f}s [{phase:5s}] {window:5.1f}s |{bar}")
    print("\nfull report for the adaptive run:")
    print(adaptive_report.text_summary())


if __name__ == "__main__":
    main()
