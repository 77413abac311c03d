"""Service-level objectives over windowed telemetry.

The paper's headline claim is a *service guarantee*: every accepted
request is picked up within its wait budget and carried within its
detour bound. This module turns that guarantee into an operational,
continuously evaluated quantity — the way a live dispatch service
would monitor it — instead of a single end-of-run audit.

Objective grammar
-----------------

An SLO spec is a comma-joined list of ``metric op threshold`` clauses::

    service_rate>=0.9,wait_p99<=300,detour_compliance>=0.99

Supported operators are ``>=`` and ``<=``; supported metrics:

``service_rate``
    assigned / settled requests in the window;
``wait_compliance``
    fraction of pickups that happened at or before the request's
    pickup deadline (Definition 2's waiting-time guarantee);
``detour_compliance``
    fraction of dropoffs whose ride time stayed within the request's
    ``(1 + eps) d(s, e)`` bound (the detour guarantee);
``wait_p50`` / ``wait_p99``
    request-to-assignment-commit latency percentile in seconds (what a
    rider experiences between asking and being told their vehicle).

All five are *simulated-time* quantities: a fixed seed reproduces the
per-window values — and therefore the whole ``slo.json`` verdict —
exactly (pinned in ``tests/test_contracts.py``).

Burn-rate semantics
-------------------

Each objective is also evaluated as an error-budget *burn rate*, the
multi-window scheme SRE practice uses to separate "one bad window"
from "we are steadily spending the budget":

* for a ``ratio >= target`` objective the budget is ``1 - target`` and
  a window's burn is ``(1 - value) / (1 - target)`` — burn 1.0 means
  failing at exactly the tolerated rate, higher means faster;
* for a ``latency <= bound`` objective the burn is ``value / bound``;
* the **fast** burn is the last window's, the **slow** burn is
  computed over the merged last ``burn_windows`` windows (counts and
  histogram buckets aggregate, so the slow burn is exact, not an
  average of averages);
* a window raises a burn **alert** only when fast *and* slow burn both
  exceed ``burn_threshold`` — a transient spike (fast only) or a slow
  drift that has already recovered (slow only) does not.

Windows with no eligible traffic produce ``no_data`` verdicts and burn
``None``; they never count against an objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.metrics import HistogramSnapshot, merge_snapshots

#: metric name -> kind ("ratio" objectives consume counter deltas,
#: "latency" objectives consume the assign-latency window histogram).
SLO_METRICS: dict[str, str] = {
    "service_rate": "ratio",
    "wait_compliance": "ratio",
    "detour_compliance": "ratio",
    "wait_p50": "latency",
    "wait_p99": "latency",
}

#: Counter names (repro.sim.metrics) each ratio metric reads, as
#: (numerator-good derivation): (total counter, bad counter). ``good``
#: is ``total - bad``.
_RATIO_COUNTERS: dict[str, tuple[str, str]] = {
    "service_rate": ("requests.settled", "requests.rejected"),
    "wait_compliance": ("pickup.count", "pickup.late"),
    "detour_compliance": ("dropoff.count", "dropoff.detour_violation"),
}

_LATENCY_QUANTILE: dict[str, float] = {"wait_p50": 0.50, "wait_p99": 0.99}

#: The histogram every latency objective reads.
LATENCY_INSTRUMENT = "assign.latency_s"


@dataclass(frozen=True, slots=True)
class SloObjective:
    """One parsed clause: ``metric op threshold``."""

    metric: str
    op: str
    threshold: float

    @property
    def label(self) -> str:
        return f"{self.metric}{self.op}{self.threshold:g}"

    @property
    def kind(self) -> str:
        return SLO_METRICS[self.metric]

    def holds(self, value: float) -> bool:
        if self.op == ">=":
            return value >= self.threshold
        return value <= self.threshold


def parse_slo_spec(spec: str | None) -> tuple[SloObjective, ...]:
    """Parse an SLO spec string; ``None``/empty disables (empty tuple).

    Raises :class:`ValueError` on unknown metrics, operators or
    malformed thresholds — at config time, not mid-run.
    """
    if spec is None or not spec.strip():
        return ()
    objectives = []
    seen = set()
    for raw in spec.split(","):
        clause = raw.strip()
        if not clause:
            continue
        for op in (">=", "<="):
            if op in clause:
                name, _, value = clause.partition(op)
                break
        else:
            raise ValueError(
                f"SLO clause {clause!r} needs '>=' or '<=' "
                "(grammar: metric>=value, comma-joined)"
            )
        name = name.strip()
        if name not in SLO_METRICS:
            known = ", ".join(sorted(SLO_METRICS))
            raise ValueError(
                f"unknown SLO metric {name!r}; known metrics: {known}"
            )
        try:
            threshold = float(value)
        except ValueError as error:
            raise ValueError(
                f"SLO clause {clause!r}: threshold {value.strip()!r} is "
                "not a number"
            ) from error
        if SLO_METRICS[name] == "ratio" and not 0.0 <= threshold <= 1.0:
            raise ValueError(
                f"SLO clause {clause!r}: {name} is a fraction; the "
                "threshold must be in [0, 1]"
            )
        if SLO_METRICS[name] == "latency" and threshold <= 0:
            raise ValueError(
                f"SLO clause {clause!r}: latency bounds must be positive"
            )
        objective = SloObjective(name, op, threshold)
        if objective.label in seen:
            raise ValueError(f"duplicate SLO clause {objective.label!r}")
        seen.add(objective.label)
        objectives.append(objective)
    if not objectives:
        raise ValueError(f"SLO spec {spec!r} contains no clauses")
    return tuple(objectives)


def _ratio_value(metric: str, counters: dict) -> float | None:
    total_name, bad_name = _RATIO_COUNTERS[metric]
    total = counters.get(total_name, 0)
    if not total:
        return None
    return (total - counters.get(bad_name, 0)) / total


def _burn(objective: SloObjective, value: float | None) -> float | None:
    """Error-budget burn rate of one window (or merged window group)."""
    if value is None:
        return None
    if objective.kind == "ratio" and objective.op == ">=":
        budget = 1.0 - objective.threshold
        error = 1.0 - value
        if budget <= 0.0:
            return 0.0 if error <= 0.0 else math.inf
        return error / budget
    if objective.kind == "latency" and objective.op == "<=":
        return value / objective.threshold
    return None  # inverted objectives: verdicts only, no burn semantics


class SloEngine:
    """Evaluates parsed objectives over the live layer's windows.

    Fed one window at a time (counter deltas + histogram deltas from
    :class:`repro.obs.live.TimeSeriesRecorder`); :meth:`finalize`
    renders the machine-readable verdict document ``slo.json``
    carries. Strictly write-only from the pipeline's point of view —
    nothing reads the engine back into a dispatch decision.
    """

    def __init__(
        self,
        objectives: tuple[SloObjective, ...],
        window_s: float,
        burn_windows: int = 5,
        burn_threshold: float = 1.0,
    ):
        if not objectives:
            raise ValueError("SloEngine needs at least one objective")
        if burn_windows < 1:
            raise ValueError("burn_windows must be >= 1")
        self.objectives = objectives
        self.window_s = window_s
        self.burn_windows = burn_windows
        self.burn_threshold = burn_threshold
        #: Rolling raw material for the slow burn: (counters, latency
        #: delta) per window, bounded to the last ``burn_windows``.
        self._recent: list[tuple[dict, HistogramSnapshot | None]] = []
        #: Whole-run accumulation for the overall verdict.
        self._total_counters: dict[str, int] = {}
        self._latency_deltas: list[HistogramSnapshot] = []
        self._windows: list[dict] = []
        self._alerts = 0

    # ------------------------------------------------------------------
    def _window_value(
        self,
        objective: SloObjective,
        counters: dict,
        latency: HistogramSnapshot | None,
    ) -> float | None:
        if objective.kind == "ratio":
            return _ratio_value(objective.metric, counters)
        if latency is None or not latency.count:
            return None
        return latency.quantile(_LATENCY_QUANTILE[objective.metric])

    def _slow_material(self) -> tuple[dict, HistogramSnapshot | None]:
        """Merged counters and latency over the last K windows —
        computed once per window, shared by every objective."""
        merged: dict[str, int] = {}
        for counters, _ in self._recent:
            for name, value in counters.items():
                merged[name] = merged.get(name, 0) + value
        deltas = [d for _, d in self._recent if d is not None and d.count]
        latency = merge_snapshots(deltas) if deltas else None
        return merged, latency

    # ------------------------------------------------------------------
    def observe_window(
        self,
        index: int,
        t_start: float,
        t_end: float,
        counters: dict,
        histograms: dict,
    ) -> dict:
        """Fold one completed window in; returns its verdict row."""
        latency = histograms.get(LATENCY_INSTRUMENT)
        needed = {
            name
            for metric in _RATIO_COUNTERS.values()
            for name in metric
        }
        window_counters = {
            name: counters.get(name, 0) for name in needed
        }
        self._recent.append((window_counters, latency))
        if len(self._recent) > self.burn_windows:
            self._recent.pop(0)
        for name, value in window_counters.items():
            self._total_counters[name] = (
                self._total_counters.get(name, 0) + value
            )
        if latency is not None and latency.count:
            self._latency_deltas.append(latency)

        metrics: dict[str, float | None] = {}
        verdicts: dict[str, str] = {}
        burn: dict[str, dict] = {}
        alert_raised = False
        slow_counters, slow_latency = self._slow_material()
        for objective in self.objectives:
            value = self._window_value(objective, window_counters, latency)
            metrics[objective.metric] = _round(value)
            if value is None:
                verdicts[objective.label] = "no_data"
            else:
                verdicts[objective.label] = (
                    "pass" if objective.holds(value) else "fail"
                )
            fast = _burn(objective, value)
            slow = _burn(
                objective,
                self._window_value(objective, slow_counters, slow_latency),
            )
            alerting = (
                fast is not None
                and slow is not None
                and fast > self.burn_threshold
                and slow > self.burn_threshold
            )
            burn[objective.label] = {
                "fast": _round(fast),
                "slow": _round(slow),
                "alert": alerting,
            }
            alert_raised = alert_raised or alerting
        if alert_raised:
            self._alerts += 1
        row = {
            "window": index,
            "t_start": _round(t_start),
            "t_end": _round(t_end),
            "metrics": metrics,
            "verdicts": verdicts,
            "burn": burn,
        }
        self._windows.append(row)
        return row

    # ------------------------------------------------------------------
    def finalize(self, spec: str | None = None) -> dict:
        """The machine-readable verdict document (``slo.json``)."""
        overall_latency = (
            merge_snapshots(self._latency_deltas)
            if self._latency_deltas
            else None
        )
        objectives = []
        doc_pass = True
        for objective in self.objectives:
            value = self._window_value(
                objective, self._total_counters, overall_latency
            )
            if value is None:
                overall_pass = None  # no eligible traffic: not violated
            else:
                overall_pass = objective.holds(value)
                doc_pass = doc_pass and overall_pass
            tallies = {"pass": 0, "fail": 0, "no_data": 0}
            alerts = 0
            worst_fast = None
            for row in self._windows:
                tallies[row["verdicts"][objective.label]] += 1
                entry = row["burn"][objective.label]
                if entry["alert"]:
                    alerts += 1
                if entry["fast"] is not None and (
                    worst_fast is None or entry["fast"] > worst_fast
                ):
                    worst_fast = entry["fast"]
            objectives.append(
                {
                    "metric": objective.metric,
                    "op": objective.op,
                    "threshold": objective.threshold,
                    "label": objective.label,
                    "overall_value": _round(value),
                    "overall_pass": overall_pass,
                    "windows": tallies,
                    "burn_alerts": alerts,
                    "worst_fast_burn": _round(worst_fast),
                }
            )
        return {
            "spec": spec,
            "window_s": self.window_s,
            "burn_windows": self.burn_windows,
            "burn_threshold": self.burn_threshold,
            "num_windows": len(self._windows),
            "alert_windows": self._alerts,
            "objectives": objectives,
            "windows": list(self._windows),
            "pass": doc_pass,
        }


def _round(value: float | None, digits: int = 6) -> float | None:
    """Stable rounding for the verdict document (``inf`` survives)."""
    if value is None:
        return None
    if math.isinf(value):
        return value
    return round(value, digits)
