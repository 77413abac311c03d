"""Resource-monitor tests: RSS, GC hooks, tracemalloc."""

import gc
import tracemalloc

import pytest

from repro.obs import MetricsRegistry, ResourceMonitor
from repro.obs.resources import read_rss_bytes


@pytest.fixture
def monitor_factory():
    """Build monitors and guarantee their GC hooks are detached."""
    monitors = []

    def build(registry):
        monitor = ResourceMonitor(registry)
        monitors.append(monitor)
        return monitor

    yield build
    for monitor in monitors:
        monitor.close()


def test_read_rss_bytes_on_linux():
    rss = read_rss_bytes()
    # procfs exists on every platform the suite targets; a live
    # interpreter occupies at least a megabyte.
    assert rss is not None and rss > 2**20


def test_sample_sets_rss_gauge(monitor_factory):
    registry = MetricsRegistry()
    monitor = monitor_factory(registry)
    monitor.sample()
    gauges = registry.snapshot()["gauges"]
    assert gauges["resource.rss_bytes"] > 2**20


def test_gc_pause_histogram_captures_collections(monitor_factory):
    registry = MetricsRegistry()
    monitor = monitor_factory(registry)
    for _ in range(3):
        gc.collect()
    snapshot = registry.snapshot()
    assert snapshot["counters"]["gc.collections"] >= 3
    pauses = snapshot["histograms"]["gc.pause_s"]
    assert pauses.count >= 3
    assert pauses.max < 60.0  # sanity: pauses are sub-minute

    # After close() the hook is gone: counters freeze.
    monitor.close()
    frozen = registry.snapshot()["counters"]["gc.collections"]
    gc.collect()
    assert registry.snapshot()["counters"]["gc.collections"] == frozen
    monitor.close()  # idempotent


def test_tracemalloc_gauge_only_when_already_tracing(monitor_factory):
    registry = MetricsRegistry()
    monitor = monitor_factory(registry)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        monitor.sample()
        gauges = registry.snapshot()["gauges"]
        # The monitor must never start tracemalloc itself.
        assert not tracemalloc.is_tracing()
        assert "resource.tracemalloc_peak_bytes" not in gauges
    tracemalloc.start()
    try:
        list(range(1000))  # some traced allocations
        monitor.sample()
        peak = registry.snapshot()["gauges"][
            "resource.tracemalloc_peak_bytes"
        ]
        assert peak > 0
    finally:
        if not was_tracing:
            tracemalloc.stop()
