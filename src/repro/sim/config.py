"""Simulation configuration.

Bundles every knob of the paper's experimental design (Tables I and II)
plus the reproduction-specific scale parameters, with the paper's
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constraints import DEFAULT_CONSTRAINTS, ConstraintConfig


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """One simulation run's parameters.

    Attributes
    ----------
    num_vehicles:
        Fleet size (paper sweeps 500 ... 20,000).
    capacity:
        Seats per vehicle; ``None`` = unlimited (Fig. 9(c) "unlim").
    constraints:
        Waiting-time / detour guarantee for all requests.
    algorithm:
        ``"kinetic"`` (live trees) or any
        :data:`repro.algorithms.ALGORITHM_REGISTRY` name for
        reschedule-from-scratch vehicles.
    tree_mode / hotspot_theta / eager_invalidation:
        Kinetic-tree variant knobs (ignored for other algorithms).
        ``hotspot_theta`` is in seconds of travel (the paper's θ is a
        small distance; at 14 m/s one second is 14 m).
    report_interval:
        Seconds between vehicle location reports to the grid index
        (paper: 20-60 s).
    dispatch_policy / batch_window_s / assignment_rounds:
        Batched-dispatch subsystem (:mod:`repro.dispatch`).
        ``dispatch_policy`` picks the batch assignment strategy
        (``"greedy"`` — paper-equivalent sequential cheapest quote,
        ``"lap"`` — one global linear-assignment round, ``"iterative"``
        — up to ``assignment_rounds`` re-quoting rounds).
        ``batch_window_s`` is the rolling-window length in seconds; 0
        dispatches each request immediately on arrival (the paper's
        behavior — with the ``greedy`` policy this reduces exactly to
        the immediate :class:`~repro.core.matching.Dispatcher`).
    carry_over:
        Carry-over batching (Simonetto-style): requests that lose a
        flush's assignment re-enter the next window — bounded by their
        remaining wait budget — instead of being settled in-batch.
        ``False`` (default) keeps today's in-batch cleanup/rejection.
    engine_kind:
        Shortest-path engine backing the run (see
        :data:`repro.roadnet.engine.ENGINE_KINDS`): ``"auto"`` picks
        matrix for precomputable graphs and Dijkstra otherwise;
        ``"matrix"`` / ``"dijkstra"`` / ``"hub_label"`` / ``"astar"``
        force a specific engine. Honored by every entry point
        that builds its own engine (the sim CLI, examples); callers of
        :func:`repro.sim.simulator.simulate` that pass a prebuilt engine
        are expected to build it with
        ``make_engine(graph, config.engine_kind)``.
    grid_cell_meters:
        Grid-index cell size.
    trace / trace_out / metrics_out:
        Flush telemetry (:mod:`repro.obs`). ``trace=True`` records
        structured spans (flush → snapshot → quote → solve → commit,
        with per-column children) on the run's
        :class:`~repro.obs.Tracer`; ``trace_out`` additionally writes
        them as Chrome trace-event JSONL (Perfetto-loadable; requires
        ``trace=True``); ``metrics_out`` writes the run's
        :class:`~repro.obs.MetricsRegistry` (p50/p90/p99 latency
        histograms) as ``metrics.json`` and works with tracing off.
        Telemetry is write-only: no dispatch decision reads it, so
        every determinism pin holds bit-for-bit with ``trace=True``
        (``docs/determinism.md``).
    seed:
        Master seed for fleet placement and cruising.
    """

    num_vehicles: int = 100
    capacity: int | None = 4
    constraints: ConstraintConfig = field(default=DEFAULT_CONSTRAINTS)
    algorithm: str = "kinetic"
    tree_mode: str = "slack"
    hotspot_theta: float | None = None
    eager_invalidation: bool = False
    report_interval: float = 60.0
    engine_kind: str = "auto"
    dispatch_policy: str = "greedy"
    batch_window_s: float = 0.0
    assignment_rounds: int = 3
    carry_over: bool = False
    grid_cell_meters: float = 500.0
    use_grid_index: bool = True
    #: Per-insertion kinetic-tree expansion budget; exceeding it raises
    #: :class:`~repro.exceptions.TreeBudgetExceeded` — the analogue of the
    #: paper's time/3 GB cutoff in Fig. 9(c). ``None`` = unbounded.
    tree_expansion_budget: int | None = None
    #: Keep only this many cheapest schedules per tree after insertion
    #: (Section V's load shedding, generalized). ``None`` = keep all.
    tree_schedule_cap: int | None = None
    trace: bool = False
    trace_out: str | None = None
    metrics_out: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.num_vehicles < 1:
            raise ValueError("num_vehicles must be >= 1")
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        if self.report_interval <= 0:
            raise ValueError("report_interval must be positive")
        from repro.roadnet.engine import ENGINE_KINDS

        if self.engine_kind not in ENGINE_KINDS:
            known = ", ".join(ENGINE_KINDS)
            raise ValueError(f"engine_kind must be one of: {known}")
        from repro.dispatch.policies import POLICY_REGISTRY

        if self.dispatch_policy not in POLICY_REGISTRY:
            known = ", ".join(sorted(POLICY_REGISTRY))
            raise ValueError(
                f"dispatch_policy must be one of: {known}"
            )
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if (
            self.batch_window_s > 0
            and self.batch_window_s >= self.constraints.max_wait_seconds
        ):
            raise ValueError(
                f"batch_window_s ({self.batch_window_s:g}) must be shorter "
                f"than the waiting-time guarantee "
                f"({self.constraints.max_wait_seconds:g} s): requests held "
                "for a full window would already have expired at dispatch"
            )
        if self.assignment_rounds < 1:
            raise ValueError("assignment_rounds must be >= 1")
        if self.carry_over and self.batch_window_s <= 0:
            raise ValueError(
                "carry_over requires batched dispatch (batch_window_s > 0): "
                "immediate per-request dispatch has no next window to "
                "carry into"
            )
        if self.trace_out is not None and not self.trace:
            raise ValueError(
                "trace_out requires trace=True: there are no spans to "
                "export from an untraced run"
            )
