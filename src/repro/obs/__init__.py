"""repro.obs — the one instrumentation plane for the flush pipeline.

Three pieces, one rule:

* :class:`Tracer` — nested, thread-safe spans over the flush
  (``flush → snapshot → quote → solve → commit``, per-column
  children, engine-level fan-out spans). Disabled tracers
  (:data:`NULL_TRACER`) are literal no-ops: no span is ever allocated.
* :class:`MetricsRegistry` — named counters, gauges and streaming
  log-bucket :class:`Histogram` instruments (p50/p90/p99 without
  storing samples), serialized to ``metrics.json``.
* exporters (:mod:`repro.obs.export`) — Chrome trace-event JSONL
  (Perfetto-loadable), the metrics summary, and Prometheus text
  exposition; analysis helpers in :mod:`repro.obs.report` back
  ``tools/trace_report.py``.

Layered on top, the live-ops plane: :mod:`repro.obs.live` rolls the
registry into sim-time windows (JSONL time series, rolling p50/p99),
:mod:`repro.obs.slo` evaluates the paper's service guarantee as
configurable objectives with burn-rate alerting, and
:mod:`repro.obs.resources` samples RSS/GC health into the
same stream.

The rule: **telemetry never steers dispatch**. Spans and instruments
are write-only for the pipeline; no assignment, window, or commit
decision may read them. The adaptive controller's wall-clock latency
guard remains the lone, documented exception (``docs/determinism.md``)
and does not go through this package. That is why every determinism
pin holds bit-for-bit with tracing enabled.
"""

from repro.obs.export import (
    chrome_trace_events,
    prom_text_lines,
    read_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
    write_prom_text,
)
from repro.obs.live import LiveTelemetry, TimeSeriesRecorder
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.resources import ResourceMonitor
from repro.obs.slo import SloEngine, SloObjective, parse_slo_spec
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
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "LiveTelemetry",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "ResourceMonitor",
    "SloEngine",
    "SloObjective",
    "Span",
    "SpanRecord",
    "TimeSeriesRecorder",
    "Tracer",
    "chrome_trace_events",
    "clock",
    "merge_snapshots",
    "parse_slo_spec",
    "prom_text_lines",
    "read_chrome_trace",
    "write_chrome_trace",
    "write_metrics_json",
    "write_prom_text",
]
