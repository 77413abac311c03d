"""Metrics naming audit.

The robustness counters are part of the repo's observable surface:
docs/robustness.md documents them and every export (metrics.json,
Prometheus text, time-series rows) must carry them even when zero.
This test pins the three-way agreement between the documented names,
the pre-registered registry and the exporters.
"""

import os

from repro.obs.export import prom_text_lines, _prom_name
from repro.sim.metrics import SimulationReport

DOCS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "docs"
)


def test_documented_counters_are_pre_registered():
    report = SimulationReport()
    counters = report.registry.snapshot()["counters"]
    for name in SimulationReport.DOCUMENTED_COUNTERS:
        assert name in counters, f"{name} missing from a fresh registry"
        assert counters[name] == 0
    for name in SimulationReport.SERVICE_COUNTERS:
        assert name in counters, f"{name} missing from a fresh registry"


def test_documented_counters_reach_the_prometheus_export():
    report = SimulationReport()
    lines = set(prom_text_lines(report.registry))
    for name in (
        SimulationReport.DOCUMENTED_COUNTERS
        + SimulationReport.SERVICE_COUNTERS
    ):
        metric = _prom_name(name) + "_total"
        assert f"{metric} 0" in lines, f"{metric} missing from exposition"


def test_robustness_doc_names_every_documented_counter():
    with open(
        os.path.join(DOCS, "robustness.md"), encoding="utf-8"
    ) as handle:
        text = handle.read()
    for name in SimulationReport.DOCUMENTED_COUNTERS:
        assert f"`{name}`" in text, (
            f"docs/robustness.md does not document the {name} counter"
        )


def test_observability_doc_names_the_service_counters():
    with open(
        os.path.join(DOCS, "observability.md"), encoding="utf-8"
    ) as handle:
        text = handle.read()
    for name in SimulationReport.SERVICE_COUNTERS:
        assert f"`{name}`" in text, (
            f"docs/observability.md does not document the {name} counter"
        )

