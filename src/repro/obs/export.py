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
    span category (``flush``, ``quote``, ``engine``, ...);
``ph`` / ``pid``
    always ``"X"`` / ``1``;
``tid``
    the tracer's thread ordinal (0 = simulator thread);
``ts`` / ``dur``
    start and duration in integer microseconds, relative to the
    tracer's first recorded span;
``args``
    the span's key/value annotations plus ``span_id`` and
    ``parent_id`` (the nesting structure ``tools/trace_report.py``
    reassembles).

The schema is pinned by a golden-file test
(``tests/obs/test_export.py``); extend it additively.

Prometheus exposition
---------------------

:func:`write_prom_text` renders the registry in the Prometheus text
exposition format (version 0.0.4) so a scrape target — or a one-shot
``textfile`` collector drop — can serve the run's instruments. Dotted
instrument names become underscore-joined metric names prefixed with
``repro_``; counters gain the conventional ``_total`` suffix; each
histogram emits cumulative ``_bucket{le="..."}`` series at its
nonempty log-bucket boundaries plus ``le="+Inf"``, ``_sum`` and
``_count``.
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
                "tid": r.thread,
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


def _prom_name(name: str, prefix: str = "repro_") -> str:
    """Dotted instrument name -> legal Prometheus metric name."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return prefix + sanitized


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value != value:  # NaN
        return "NaN"
    return f"{value:.9g}"


def prom_text_lines(registry, prefix: str = "repro_") -> list[str]:
    """The registry as Prometheus text-exposition lines (no trailing
    newline handling — :func:`write_prom_text` joins them)."""
    snapshot = registry.snapshot()
    lines: list[str] = []
    for name in sorted(snapshot["counters"]):
        metric = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot['counters'][name]}")
    for name in sorted(snapshot["gauges"]):
        value = snapshot["gauges"][name]
        if value is None:
            continue  # never set: nothing meaningful to expose
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name in sorted(snapshot["histograms"]):
        snap = snapshot["histograms"][name]
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for idx, bucket_count in enumerate(snap.counts):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if idx >= len(snap.counts) - 1:
                continue  # overflow bucket folds into +Inf below
            upper = snap.lo * snap.growth ** idx if idx else snap.lo
            lines.append(
                f'{metric}_bucket{{le="{_prom_value(upper)}"}} {cumulative}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {snap.count}')
        lines.append(f"{metric}_sum {_prom_value(snap.total)}")
        lines.append(f"{metric}_count {snap.count}")
    return lines


def write_prom_text(registry, path: str, prefix: str = "repro_") -> int:
    """Write the registry in Prometheus text exposition format;
    returns the number of sample/metadata lines written."""
    lines = prom_text_lines(registry, prefix)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")
    return len(lines)


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
