"""Command-line entry point: run paper experiments and print/save tables.

Usage::

    python -m repro.bench                 # every experiment
    python -m repro.bench fig6b fig9c     # selected experiments
    python -m repro.bench --list          # show available ids
    REPRO_SCALE=2 python -m repro.bench   # larger problem sizes
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (default: all)",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--save-dir",
        default=None,
        help="also write each table to this directory",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, (_, description) in ALL_EXPERIMENTS.items():
            print(f"{name:22s} {description}")
        return 0

    names = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"known: {', '.join(ALL_EXPERIMENTS)}"
        )
    for name in names:
        started = time.perf_counter()
        table = run_experiment(name)
        elapsed = time.perf_counter() - started
        print(table.render())
        print(f"({elapsed:.1f}s)\n")
        if args.save_dir:
            table.save(args.save_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
