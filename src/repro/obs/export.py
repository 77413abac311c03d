"""Exporters: Chrome trace-event JSONL and ``metrics.json``.

Trace schema
------------

One JSON object per line (JSONL), each a Chrome *complete* event
(``"ph": "X"``) as defined by the Trace Event Format — the shape
Perfetto's legacy-JSON importer loads directly (it tolerates the
missing enclosing array; wrap the lines in ``[...]`` for a strict
viewer). Per event:

``name``
    span name (``flush``, ``solve``, ``quote.column``, ...);
``cat``
    span category (``flush``, ``quote``, ``solve``, ...);
``ph`` / ``pid``
    always ``"X"`` / ``1``;
``tid``
    always ``0``: the simulator opens every span on one thread;
``ts`` / ``dur``
    start and duration in integer microseconds, relative to the
    tracer's first recorded span;
``args``
    the span's key/value annotations plus ``span_id`` and
    ``parent_id`` (the nesting structure ``tools/trace_report.py``
    reassembles).

The schema is pinned by a golden-file test
(``tests/obs/test_export.py``); extend it additively.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.trace import SpanRecord


def chrome_trace_events(records: Iterable[SpanRecord]) -> list[dict]:
    """Flatten span records into Chrome trace-event dicts.

    Timestamps are rebased to the earliest span so traces start at
    ``ts=0`` whatever ``perf_counter``'s epoch was.
    """
    records = list(records)
    if not records:
        return []
    base = min(r.start_s for r in records)
    events = []
    for r in sorted(records, key=lambda r: (r.start_s, r.span_id)):
        events.append(
            {
                "name": r.name,
                "cat": r.cat,
                "ph": "X",
                "pid": 1,
                "tid": 0,
                "ts": round((r.start_s - base) * 1e6),
                "dur": round(r.dur_s * 1e6),
                "args": {
                    **r.args,
                    "span_id": r.span_id,
                    "parent_id": r.parent_id,
                },
            }
        )
    return events


def write_chrome_trace(records: Iterable[SpanRecord], path: str) -> int:
    """Write one trace-event object per line; returns the event count."""
    events = chrome_trace_events(records)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return len(events)


def read_chrome_trace(path: str) -> list[dict]:
    """Read a JSONL trace back (blank lines ignored); the CLI's loader.

    Also accepts the strict array form (a file whose first character is
    ``[``) so hand-wrapped traces keep working.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        return json.loads(stripped)
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def write_metrics_json(registry, path: str, extra: dict | None = None) -> dict:
    """Write the registry summary (plus optional ``extra`` context —
    e.g. the simulation report summary) as ``metrics.json``; returns
    the document."""
    document = dict(registry.as_dict())
    if extra:
        document["context"] = extra
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document
