"""Process resource monitoring for long-lived (soak) runs.

The ROADMAP's always-on dispatch service needs *bounded-memory
evidence*: a soak run must show that RSS, allocator peaks and GC
behaviour flatten out rather than creep. :class:`ResourceMonitor`
samples those signals into the run's :class:`~repro.obs.metrics.
MetricsRegistry` so they ride the same windowed time series as the
dispatch metrics (:mod:`repro.obs.live`) and the same ``metrics.json``
export.

What gets sampled (all wall-clock / process-level, so these values
appear in time-series rows and ``metrics.json`` but are deliberately
excluded from the deterministic ``slo.json`` verdict):

* ``resource.rss_bytes`` (gauge) — resident set size from
  ``/proc/self/statm`` (silently absent on platforms without procfs);
* ``resource.tracemalloc_peak_bytes`` (gauge) — traced-memory peak,
  sampled **only if tracemalloc is already tracing**. The monitor
  never *starts* tracemalloc: tracing multiplies allocation cost and
  would blow the live layer's ≤5 % overhead budget. Opt in from the
  caller (e.g. a soak harness) with ``tracemalloc.start()``.
* ``gc.pause_s`` (histogram) / ``gc.collections`` (counter) —
  stop-the-world collection pauses, timed via ``gc.callbacks``.

Sampling is pull-based — the live layer calls :meth:`sample` once per
window roll — except GC pauses, which are pushed by the interpreter's
collector from whatever thread triggered collection (instrument
mutation is thread-safe). Call :meth:`close` to detach the GC hook.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc

from repro.obs.metrics import MetricsRegistry

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes(handle=None) -> int | None:
    """Resident set size of this process, or ``None`` without procfs.

    ``handle`` is an already-open ``/proc/self/statm`` to rewind and
    re-read — procfs files re-evaluate on read, and skipping the
    ``open`` matters at one sample per window roll.
    """
    try:
        if handle is not None:
            handle.seek(0)
            fields = handle.read().split()
        else:
            with open("/proc/self/statm", "r", encoding="ascii") as fresh:
                fields = fresh.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


class ResourceMonitor:
    """Samples process health into the metrics registry."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._rss = registry.gauge("resource.rss_bytes")
        self._gc_pause = registry.histogram("gc.pause_s")
        self._gc_count = registry.counter("gc.collections")
        self._gc_started: float | None = None
        self._closed = False
        try:
            self._statm = open("/proc/self/statm", "r", encoding="ascii")
        except OSError:  # pragma: no cover - no procfs
            self._statm = None
        gc.callbacks.append(self._on_gc)

    # ------------------------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        # Runs inside the collector on an arbitrary thread; must never
        # raise (an exception here would surface at a random gc point).
        try:
            if phase == "start":
                self._gc_started = time.perf_counter()
            elif phase == "stop" and self._gc_started is not None:
                self._gc_pause.add(time.perf_counter() - self._gc_started)
                self._gc_count.inc()
                self._gc_started = None
        except Exception:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Take one pull-based sample (called once per window roll)."""
        rss = read_rss_bytes(self._statm)
        if rss is not None:
            self._rss.set(rss)
        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            self.registry.gauge("resource.tracemalloc_peak_bytes").set(peak)

    def close(self) -> None:
        """Detach the GC hook and procfs handle (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            gc.callbacks.remove(self._on_gc)
        except ValueError:  # pragma: no cover - already removed
            pass
        if self._statm is not None:
            self._statm.close()
            self._statm = None
