#!/usr/bin/env python
"""Summarize a flush trace from the command line.

Loads a Chrome trace-event file written by ``--trace-out`` (JSONL or a
strict JSON array) and prints the two views ``repro.obs.report``
computes:

* the per-stage breakdown — where flush time goes, aggregated by span
  name (count, total/mean/p50/p99/max ms), sorted by total time;
* the top-N slowest ``flush`` spans, each decomposed into its direct
  children (snapshot / quote.collect / solve / commit / cleanup).

``--json`` emits the same two views as one machine-readable document
instead of text tables. A missing, unreadable, malformed or empty
trace exits non-zero with a one-line message on stderr.

Run:  PYTHONPATH=src python tools/trace_report.py trace.jsonl [--top 5]

The script also works without PYTHONPATH from a repo checkout — it
falls back to the sibling ``src/`` layout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

try:
    from repro.obs.export import read_chrome_trace
    from repro.obs.report import (
        render_slowest,
        render_stage_table,
        slowest_flushes,
        stage_breakdown,
    )
except ImportError:  # repo-checkout fallback: tools/ sits next to src/
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )
    from repro.obs.export import read_chrome_trace
    from repro.obs.report import (
        render_slowest,
        render_stage_table,
        slowest_flushes,
        stage_breakdown,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/trace_report.py",
        description="Per-stage breakdown and slowest-flush drilldown of a "
        "Chrome trace written by python -m repro.sim --trace-out.",
    )
    parser.add_argument("trace", help="trace path (JSONL or JSON array)")
    parser.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="how many slowest flushes to drill into (default 5)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the breakdown and drilldown as one JSON document",
    )
    args = parser.parse_args(argv)
    try:
        events = read_chrome_trace(args.trace)
    except OSError as error:
        print(
            f"error: cannot read trace {args.trace!r}: {error.strerror}",
            file=sys.stderr,
        )
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        print(
            f"error: {args.trace!r} is not a Chrome trace "
            f"(JSONL or JSON array): {error}",
            file=sys.stderr,
        )
        return 2
    if not events:
        print(
            f"error: no trace events in {args.trace!r} — was the run "
            "traced? (python -m repro.sim --trace-out PATH)",
            file=sys.stderr,
        )
        return 1
    if not all(isinstance(e, dict) and "name" in e for e in events):
        print(
            f"error: {args.trace!r} parses as JSON but its rows are not "
            "trace events (no 'name' field) — a --timeseries-out file? "
            "This tool reads --trace-out files.",
            file=sys.stderr,
        )
        return 1
    stages = stage_breakdown(events)
    slowest = slowest_flushes(events, top=args.top)
    if args.json:
        print(
            json.dumps(
                {
                    "trace": args.trace,
                    "events": len(events),
                    "stages": stages,
                    "slowest_flushes": slowest,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"{len(events)} events from {args.trace}\n")
    print(render_stage_table(stages))
    print(f"\nslowest flushes (top {args.top}):")
    print(render_slowest(slowest))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `trace_report.py t.jsonl | head`
        sys.exit(0)
