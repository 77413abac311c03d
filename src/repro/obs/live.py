"""Rolling-window live telemetry over the metrics registry.

PR 6 gave the simulator end-of-run evidence: one registry dump, one
trace file. An always-on dispatch service needs the *rolling* view —
throughput, assign-latency p50/p99, guarantee compliance and resource
headroom per interval — which this module derives from the same
cumulative instruments via the snapshot/delta algebra in
:mod:`repro.obs.metrics`.

Windows are **simulated-time** intervals: the event loop calls
:meth:`LiveTelemetry.advance` with each event's timestamp, and every
elapsed ``window_s`` of sim time closes a window. Closing a window

1. samples the resource monitor (if enabled),
2. takes a registry snapshot and diffs it against the previous one
   (counter deltas, per-window histogram deltas, current gauges),
3. appends the window's histogram deltas to a bounded ring of the last
   ``ring`` windows, whose merge answers *rolling* p50/p99 without
   ever storing samples,
4. emits one JSONL row (``--timeseries-out``), feeds the SLO engine,
   and — every ``live_report_every`` windows — prints one console
   status line (``--live-report``).

Wall-clock quantities (stage timings, resource gauges) appear in the
rows; the SLO engine consumes only sim-time metrics so its verdict is
seed-reproducible (see :mod:`repro.obs.slo`).

The standing contract holds: this layer is write-only. It reads
instruments and the event clock, and steers nothing — a run with the
live layer fully enabled is bit-identical to one without it
(determinism contract 9, pinned in
``tests/test_contracts.py``).
"""

from __future__ import annotations

import json
from collections import deque

from repro.obs.metrics import (
    HistogramSnapshot,
    MetricsRegistry,
    _walk_quantile_items,
)
from repro.obs.resources import ResourceMonitor
from repro.obs.slo import SloEngine, parse_slo_spec

#: Counter whose per-window delta defines row throughput.
THROUGHPUT_COUNTER = "requests.settled"
#: Histogram surfaced in the console line's rolling p99.
LATENCY_INSTRUMENT = "assign.latency_s"


class _RollingRing:
    """The last K window deltas of one histogram, with an incremental
    *sparse* bucket sum so each roll pays O(nonzero buckets) for the
    entering and leaving window only — never a K-way merge, never a
    full 134-slot scan."""

    __slots__ = ("maxlen", "parts", "buckets", "count", "total")

    def __init__(self, maxlen: int):
        self.maxlen = maxlen
        self.parts: deque = deque()
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0

    def append(self, snap: HistogramSnapshot) -> None:
        self.parts.append(snap)
        if snap.count:
            buckets = self.buckets
            for i, n in enumerate(snap.counts):
                if n:
                    buckets[i] = buckets.get(i, 0) + n
            self.count += snap.count
            self.total += snap.total
        if len(self.parts) > self.maxlen:
            old = self.parts.popleft()
            if old.count:
                buckets = self.buckets
                for i, n in enumerate(old.counts):
                    if n:
                        left = buckets[i] - n
                        if left:
                            buckets[i] = left
                        else:
                            del buckets[i]
                self.count -= old.count
                self.total -= old.total

    def summary(self) -> dict:
        """Rolling p50/p99 over the ring (caller guards count > 0)."""
        live = [s for s in self.parts if s.count]
        scheme = live[0]
        p50, p99 = _walk_quantile_items(
            sorted(self.buckets.items()),
            self.count,
            (0.50, 0.99),
            scheme.lo,
            scheme.growth,
            min(s.min for s in live),
            max(s.max for s in live),
        )
        return {
            "windows": len(self.parts),
            "count": self.count,
            "p50": p50,
            "p99": p99,
        }


class TimeSeriesRecorder:
    """Turns cumulative instruments into per-window JSONL rows.

    One instance per run. ``start_time`` anchors window 0 (the first
    request's timestamp, so rows align with the workload rather than
    with sim epoch zero). ``observers`` are called once per closed
    window with ``(row, counter_deltas, histogram_deltas)`` — the SLO
    engine subscribes this way.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        window_s: float,
        start_time: float,
        ring: int = 5,
        out_path: str | None = None,
        live_report_every: int = 0,
        resource_monitor: ResourceMonitor | None = None,
        print_fn=print,
    ):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if ring < 1:
            raise ValueError("ring must be >= 1")
        self.registry = registry
        self.window_s = window_s
        self.ring = ring
        self.out_path = out_path
        self.live_report_every = live_report_every
        self.resource_monitor = resource_monitor
        self.observers = []
        self.rows: list[dict] = []
        self._print = print_fn
        self._window_index = 0
        self._window_start = start_time
        self._prev = registry.snapshot()
        self._rings: dict[str, _RollingRing] = {}
        #: Idle instruments dominate most windows; their (identical)
        #: empty deltas are built once and reused.
        self._empty_deltas: dict[str, HistogramSnapshot] = {}
        self._finished = False

    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Roll every window that ``now`` (sim time) has completed."""
        while now >= self._window_start + self.window_s:
            self._roll(self._window_start + self.window_s)

    def finish(self, now: float) -> None:
        """Close out the run: roll complete windows, emit the final
        partial window (if it saw any time), write the JSONL file."""
        if self._finished:
            return
        self._finished = True
        self.advance(now)
        if now > self._window_start or not self.rows:
            self._roll(max(now, self._window_start))
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8") as handle:
                for row in self.rows:
                    handle.write(json.dumps(row, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    def _roll(self, t_end: float) -> None:
        if self.resource_monitor is not None:
            self.resource_monitor.sample()
        current = self.registry.snapshot()
        previous = self._prev

        counter_deltas = {
            name: value - previous["counters"].get(name, 0)
            for name, value in current["counters"].items()
        }
        histogram_deltas: dict[str, HistogramSnapshot] = {}
        for name, snap in current["histograms"].items():
            prior = previous["histograms"].get(name)
            if prior is not None and snap.count == prior.count:
                delta = self._empty_deltas.get(name)
                if delta is None:
                    delta = self._empty_deltas[name] = snap.delta(snap)
            elif prior is not None:
                delta = snap.delta(prior)
            else:
                delta = snap
            histogram_deltas[name] = delta
            ring = self._rings.get(name)
            if ring is None:
                ring = self._rings[name] = _RollingRing(self.ring)
            ring.append(delta)

        t_start = self._window_start
        span = t_end - t_start
        row = {
            "window": self._window_index,
            "t_start": t_start,
            "t_end": t_end,
            "window_s": span,
            "throughput_rps": (
                counter_deltas.get(THROUGHPUT_COUNTER, 0) / span
                if span > 0
                else 0.0
            ),
            "counters": {
                name: value
                for name, value in sorted(counter_deltas.items())
                if value
            },
            "gauges": {
                name: value
                for name, value in sorted(current["gauges"].items())
                if value is not None
            },
            "histograms": {
                name: delta.as_dict()
                for name, delta in sorted(histogram_deltas.items())
                if delta.count
            },
            "rolling": {
                name: ring.summary()
                for name, ring in sorted(self._rings.items())
                if ring.count
            },
        }
        self.rows.append(row)
        for observer in self.observers:
            observer(row, counter_deltas, histogram_deltas)
        if (
            self.live_report_every
            and self._window_index % self.live_report_every == 0
        ):
            self._print(render_live_line(row))

        self._prev = current
        self._window_start = t_end
        self._window_index += 1

def render_live_line(row: dict) -> str:
    """One human-scannable console line for ``--live-report``."""
    counters = row["counters"]
    settled = counters.get("requests.settled", 0)
    assigned = counters.get("requests.assigned", 0)
    service = f"{assigned / settled:.0%}" if settled else "--"
    rolling = row["rolling"].get(LATENCY_INSTRUMENT)
    if rolling and rolling["p99"] is not None:
        latency = f"{rolling['p99'] * 1e3:.1f}ms"
    else:
        latency = "--"
    rss = row["gauges"].get("resource.rss_bytes")
    rss_part = f" rss={rss / 2**20:.0f}MiB" if rss is not None else ""
    return (
        f"[live] w{row['window']:>3} "
        f"t={row['t_start']:.0f}..{row['t_end']:.0f}s "
        f"settled={settled} service={service} "
        f"assign_p99={latency}{rss_part}"
    )


class LiveTelemetry:
    """The coordinator the simulator owns: recorder + SLO engine +
    resource monitor, built from :class:`repro.sim.config.
    SimulationConfig` and torn down at end of run.

    ``from_config`` returns ``None`` when no live feature is enabled,
    so the event loop's fast path stays a single ``is None`` check.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        start_time: float,
        window_s: float = 60.0,
        ring: int = 5,
        timeseries_out: str | None = None,
        slo_spec: str | None = None,
        slo_out: str | None = None,
        live_report_every: int = 0,
        monitor_resources: bool = False,
        print_fn=print,
    ):
        self.slo_spec = slo_spec
        self.slo_out = slo_out
        self.slo_document: dict | None = None
        self.resource_monitor = (
            ResourceMonitor(registry) if monitor_resources else None
        )
        objectives = parse_slo_spec(slo_spec)
        self.slo_engine = (
            SloEngine(objectives, window_s, burn_windows=ring)
            if objectives
            else None
        )
        self.recorder = TimeSeriesRecorder(
            registry,
            window_s,
            start_time,
            ring=ring,
            out_path=timeseries_out,
            live_report_every=live_report_every,
            resource_monitor=self.resource_monitor,
            print_fn=print_fn,
        )
        if self.slo_engine is not None:
            self.recorder.observers.append(self._feed_slo)

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config, registry, start_time):
        """Build from a ``SimulationConfig``; ``None`` when disabled."""
        enabled = (
            config.timeseries_out is not None
            or config.slo is not None
            or config.live_report_every > 0
            or config.resource_monitor
        )
        if not enabled:
            return None
        return cls(
            registry,
            start_time,
            window_s=config.timeseries_window_s,
            ring=config.timeseries_ring,
            timeseries_out=config.timeseries_out,
            slo_spec=config.slo,
            slo_out=config.slo_out,
            live_report_every=config.live_report_every,
            monitor_resources=config.resource_monitor,
        )

    # ------------------------------------------------------------------
    def _feed_slo(self, row, counter_deltas, histogram_deltas) -> None:
        self.slo_engine.observe_window(
            row["window"],
            row["t_start"],
            row["t_end"],
            counter_deltas,
            histogram_deltas,
        )

    def advance(self, now: float) -> None:
        """Per-event hook: roll any sim-time windows ``now`` completes."""
        self.recorder.advance(now)

    def finish(self, now: float) -> dict | None:
        """End of run: final window, JSONL flush, SLO verdict +
        ``slo.json``, GC-hook teardown. Returns the SLO document (or
        ``None`` when no SLO was configured). Idempotent."""
        self.recorder.finish(now)
        if self.slo_engine is not None and self.slo_document is None:
            self.slo_document = self.slo_engine.finalize(self.slo_spec)
            if self.slo_out:
                # No indent: keeps the C encoder (indent falls back to
                # the slow Python path, a visible slice of the ≤5 %
                # live budget). Pretty-print with jq / json.tool.
                with open(self.slo_out, "w", encoding="utf-8") as handle:
                    json.dump(self.slo_document, handle, sort_keys=True)
                    handle.write("\n")
        if self.resource_monitor is not None:
            self.resource_monitor.close()
        return self.slo_document
