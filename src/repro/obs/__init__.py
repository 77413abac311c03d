"""repro.obs — the one instrumentation plane for the flush pipeline.

Three pieces, one rule:

* :class:`Tracer` — nested spans over the flush
  (``flush → snapshot → quote → solve → commit``, per-column and
  per-request children). Disabled tracers (:data:`NULL_TRACER`) are
  literal no-ops: no span is ever allocated.
* :class:`MetricsRegistry` — named counters and streaming log-bucket
  :class:`Histogram` instruments (p50/p90/p99 without storing
  samples), serialized to ``metrics.json``; the one store of a run's
  statistics, which ``SimulationReport`` reads back.
* exporters (:mod:`repro.obs.export`) — Chrome trace-event JSONL
  (Perfetto-loadable) and the metrics summary; analysis helpers in
  :mod:`repro.obs.report` back ``tools/trace_report.py``.

The rule: **telemetry never steers dispatch**. Spans and instruments
are write-only for the pipeline; no assignment, window, or commit
decision may read them. That is why every determinism pin holds
bit-for-bit with tracing enabled.
"""

from repro.obs.export import (
    chrome_trace_events,
    read_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    SpanRecord,
    Tracer,
    clock,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "SpanRecord",
    "Tracer",
    "chrome_trace_events",
    "clock",
    "read_chrome_trace",
    "write_chrome_trace",
    "write_metrics_json",
]
