"""Chaos benchmark (``BENCH_chaos.json``): service under injected faults.

Runs one workload through the hardened flush pipeline at increasing
mixed-fault intensities — quote-task crashes and delays, shard-solve
crashes, worker-pool deaths — on the process shard backend, plus a
serial determinism pair at the headline intensity. The document
the numbers make: the degradation ladder (retry → fault-carry → serial
shard rescue → one-flush greedy downgrade) turns faults into bounded
service-rate loss instead of crashes or lost requests.

Per cell the document records service rate, assignment-latency p50/p99,
the full fault-tolerance counter block (injections, retries, pool
recreations, failed quote columns, serial shard rescues, degraded
flushes, fault-rescued carries) and an ``accounting_ok`` bit — every
request assigned or rejected, none silently lost. ``benchmarks/
test_chaos.py`` gates the headline claims: the 5%-fault service rate
stays within 10% of fault-free on the process backend, accounting holds
in every cell, and the serial 5% cell reruns bit-identically
(determinism contract 10).

Run from the shell::

    PYTHONPATH=src python -m repro.bench.chaos            # full run
    PYTHONPATH=src python -m repro.bench.chaos --fast     # CI smoke
    PYTHONPATH=src python -m repro.bench.chaos --out path/to.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.trend import attach_series
from repro.roadnet.engine import make_engine
from repro.roadnet.generators import grid_city
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.workload import ShanghaiLikeWorkload

#: Default output file name, written to the current working directory
#: (the repo root under both the CI smoke step and the benchmark suite).
DEFAULT_OUT = "BENCH_chaos.json"

#: Fault intensities benchmarked, as the per-opportunity crash rate.
FAULT_RATES = (0.0, 0.01, 0.05, 0.10)

#: The intensity the service-rate gate is applied at.
GATE_RATE = 0.05


def mixed_fault_spec(rate: float, deadline_s: float = 2.0) -> str | None:
    """The benchmark's mixed fault plan at crash intensity ``rate``.

    Crashes at ``rate`` on the quote and shard sites, virtual delays at
    half that rate, and pool deaths at a fifth of it — pool death is the
    most expensive fault (a whole executor is torn down), so real
    deployments see proportionally fewer of them. One deterministic
    one-shot delay just over the flush deadline rides along so every
    faulted cell exercises (and demonstrates recovery from) the greedy
    downgrade rung of the ladder — at realistic rates the retry rung
    absorbs everything before a deadline would trip on its own.
    """
    if rate <= 0.0:
        return None
    return (
        # First in the plan: earlier clauses win ties, and a rate clause
        # firing at the same opportunity would otherwise shadow (and
        # consume) the one-shot.
        f"quote.task:delay:@3:{deadline_s * 1.25:g},"
        f"quote.task:crash:{rate:g},"
        f"quote.task:delay:{rate / 2:g}:0.25,"
        f"shard.solve:crash:{rate:g},"
        f"pool.submit:pool_death:{rate / 5:g}"
    )


def _deterministic_state(report) -> dict:
    """Everything a run produces except wall-clock timings."""
    return {
        "num_requests": report.num_requests,
        "num_assigned": report.num_assigned,
        "num_rejected": report.num_rejected,
        "total_cost": report.total_assignment_cost,
        "faults_injected": report.summary()["faults_injected"],
        "service_log": {
            rid: (
                entry.get("vehicle"),
                entry.get("assigned_cost"),
                entry.get("assigned_at"),
                entry.get("pickup"),
                entry.get("dropoff"),
            )
            for rid, entry in report.service_log.items()
        },
    }


def _cell(report) -> dict:
    latency = report.registry.histogram("assign.latency_s")
    summary = report.summary()
    return {
        "service_rate": report.service_rate,
        "requests": report.num_requests,
        "assigned": report.num_assigned,
        "rejected": report.num_rejected,
        "accounting_ok": (
            report.num_assigned + report.num_rejected == report.num_requests
        ),
        "assign_latency_s_p50": round(latency.quantile(0.50) or 0.0, 4),
        "assign_latency_s_p99": round(latency.quantile(0.99) or 0.0, 4),
        "faults_injected": summary["faults_injected"],
        "retries": summary["retries"],
        "pool_recreations": summary["pool_recreations"],
        "quote_columns_failed": summary["quote_columns_failed"],
        "shard_serial_rescues": summary["shard_serial_rescues"],
        "flushes_degraded": summary["flushes_degraded"],
        "fault_rescued_carries": summary["fault_rescued_carries"],
        "guarantee_violations": len(report.verify_service_guarantees()),
    }


def run_chaos_bench(
    out_path: str | None = DEFAULT_OUT,
    grid_side: int = 14,
    num_vehicles: int = 8,
    num_trips: int = 150,
    duration_s: float = 1500.0,
    batch_window_s: float = 5.0,
    backends: tuple[str, ...] = ("process",),
    fault_rates: tuple[float, ...] = FAULT_RATES,
    flush_deadline_s: float = 2.0,
    engine_kind: str = "matrix",
    seed: int = 17,
    fault_seed: int = 23,
) -> dict:
    """Benchmark the hardened pipeline across fault intensities and
    backends; return (and optionally write) the result document."""
    city = grid_city(grid_side, grid_side, seed=seed)
    trips = ShanghaiLikeWorkload(city, seed=seed, min_trip_meters=600.0).generate(
        num_trips=num_trips, duration_seconds=duration_s
    )

    def run_cell(backend: str, rate: float):
        # Fresh engine per cell: no run may inherit another's warm
        # caches, and the engine fault wrapper must start from clean.
        engine = make_engine(city, engine_kind)
        config = SimulationConfig(
            num_vehicles=num_vehicles,
            algorithm="kinetic",
            engine_kind=engine_kind,
            dispatch_policy="sharded",
            num_shards=2,
            shard_backend=backend,
            batch_window_s=batch_window_s,
            carry_over=True,
            flush_deadline_s=flush_deadline_s,
            fault_spec=mixed_fault_spec(rate, deadline_s=flush_deadline_s),
            fault_seed=fault_seed,
            seed=seed,
        )
        return simulate(engine, config, trips)

    runs: dict[str, dict] = {}
    for backend in backends:
        cells: dict[str, dict] = {}
        for rate in fault_rates:
            cells[f"{rate:g}"] = _cell(run_cell(backend, rate))
        runs[backend] = cells

    # Determinism contract 10 at the headline intensity: a same-plan,
    # same-seed serial rerun must be bit-identical, fault counters
    # included.
    first = run_cell("serial", GATE_RATE)
    second = run_cell("serial", GATE_RATE)
    serial_cell = _cell(first)
    serial_cell["deterministic_rerun"] = (
        _deterministic_state(first) == _deterministic_state(second)
    )
    runs["serial"] = {f"{GATE_RATE:g}": serial_cell}

    result = {
        "benchmark": "chaos",
        "workload": {
            "grid_side": grid_side,
            "num_vertices": city.num_vertices,
            "num_vehicles": num_vehicles,
            "num_trips": len(trips),
            "duration_s": duration_s,
            "batch_window_s": batch_window_s,
            "flush_deadline_s": flush_deadline_s,
            "fault_rates": list(fault_rates),
            "gate_rate": GATE_RATE,
            "backends": list(backends),
            "engine_kind": engine_kind,
            "seed": seed,
            "fault_seed": fault_seed,
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
    """Fixed-width table of one :func:`run_chaos_bench` document."""
    w = result["workload"]
    lines = [
        "== chaos: service under injected faults, by backend and rate ==",
        f"{'backend':8s} | {'rate':>5s} | {'service':>7s} | {'p99_s':>7s} | "
        f"{'faults':>6s} | {'retries':>7s} | {'degr':>4s} | {'resc':>4s} | "
        f"{'acct':>4s}",
        "-" * 72,
    ]
    for backend, cells in result["runs"].items():
        for rate, cell in cells.items():
            lines.append(
                f"{backend:8s} | {rate:>5s} | {cell['service_rate']:>7.3f} | "
                f"{cell['assign_latency_s_p99']:>7.3f} | "
                f"{cell['faults_injected']:>6d} | {cell['retries']:>7d} | "
                f"{cell['flushes_degraded']:>4d} | "
                f"{cell['shard_serial_rescues']:>4d} | "
                f"{'ok' if cell['accounting_ok'] else 'LOST'}"
            )
    serial = result["runs"].get("serial", {}).get(f"{GATE_RATE:g}", {})
    lines.append(
        f"note: {w['num_trips']} trips / {w['num_vehicles']} vehicles, "
        f"window {w['batch_window_s']:g}s, flush deadline "
        f"{w['flush_deadline_s']:g}s; gate at rate {w['gate_rate']:g}; "
        "deterministic serial rerun: "
        f"{'yes' if serial.get('deterministic_rerun') else 'NO'}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.chaos",
        description="Benchmark the fault-hardened flush pipeline.",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        help=f"output JSON path (default ./{DEFAULT_OUT})",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI smoke mode: smaller city, fewer trips, two fault rates "
        "(no service floor asserted at this scale — completion, "
        "accounting and the determinism column are the smoke signal)",
    )
    args = parser.parse_args(argv)
    if args.fast:
        result = run_chaos_bench(
            out_path=args.out,
            grid_side=10,
            num_vehicles=6,
            num_trips=60,
            duration_s=600.0,
            fault_rates=(0.0, GATE_RATE),
        )
    else:
        result = run_chaos_bench(out_path=args.out)
    print(render(result))
    print(f"wrote {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
