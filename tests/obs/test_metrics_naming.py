"""Metrics naming audit.

The request outcome counters are part of the repo's observable surface:
docs/observability.md documents them and the ``metrics.json`` export
must carry them even when zero. This test pins the three-way
agreement between the documented names, the pre-registered registry
and the exporter.
"""

import json
import os

from repro.obs.export import write_metrics_json
from repro.sim.metrics import SimulationReport

DOCS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "docs"
)


def test_documented_counters_are_pre_registered():
    report = SimulationReport()
    counters = report.registry.as_dict()["counters"]
    for name in SimulationReport.SERVICE_COUNTERS:
        assert name in counters, f"{name} missing from a fresh registry"
        assert counters[name] == {"value": 0}


def test_documented_counters_reach_the_metrics_json_export(tmp_path):
    report = SimulationReport()
    path = tmp_path / "metrics.json"
    write_metrics_json(report.registry, str(path))
    with open(path, encoding="utf-8") as handle:
        counters = json.load(handle)["counters"]
    for name in SimulationReport.SERVICE_COUNTERS:
        assert counters.get(name) == {"value": 0}, (
            f"{name} missing from metrics.json"
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
