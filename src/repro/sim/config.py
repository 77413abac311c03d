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
        The ``"sharded"`` policy federates the lap solve over spatial
        shards (:mod:`repro.dispatch.sharding`).
    num_shards / shard_backend / shard_boundary_cells:
        Sharded-dispatch knobs (rejected unless ``dispatch_policy`` is
        ``"sharded"``). ``num_shards`` is the target spatial partition count
        (1 = global solve, bit-identical to ``"lap"``);
        ``shard_backend`` picks the per-shard solve executor
        (``"serial"`` or ``"process"`` — results are identical across
        backends); ``shard_boundary_cells`` is the
        optional candidate-halo width in grid cells (``None`` keeps
        every feasible candidate per shard).
    adaptive_window / window_min_s / window_max_s:
        Batch-window autotuning (:mod:`repro.dispatch.adaptive`). With
        ``adaptive_window=True`` the window length is retuned at every
        flush from an EWMA of request arrival intensity — short windows
        off-peak, longer in rush hour — clamped to
        ``[window_min_s, window_max_s]`` (both required; the configured
        ``batch_window_s`` is the initial value and must lie inside the
        band). ``False`` (default) keeps the fixed window and is
        bit-identical to pre-controller runs.
    adaptive_ewma_alpha / adaptive_target_batch / adaptive_latency_headroom:
        Controller shape knobs (only honored with ``adaptive_window``):
        EWMA smoothing weight of the newest intensity sample, the batch
        size at which a maximal window saturates (sets the intensity →
        window ramp slope), and the real-time guard's quote-latency
        headroom fraction (wall-clock safety channel; dormant at
        simulation scale — see ``docs/determinism.md``).
    carry_over:
        Carry-over batching (Simonetto-style): requests that lose a
        flush's assignment re-enter the next window — bounded by their
        remaining wait budget — instead of being settled in-batch.
        ``False`` (default) keeps today's in-batch cleanup/rejection.
    engine_kind:
        Shortest-path engine backing the run (see
        :data:`repro.roadnet.engine.ENGINE_KINDS`): ``"auto"`` picks
        matrix for precomputable graphs and Dijkstra otherwise;
        ``"matrix"`` / ``"dijkstra"`` / ``"hub_label"`` / ``"astar"`` /
        ``"ch"`` force a specific engine. Honored by every entry point
        that builds its own engine (the sim CLI, examples); callers of
        :func:`repro.sim.simulator.simulate` that pass a prebuilt engine
        are expected to build it with
        ``make_engine(graph, config.engine_kind)``.
    grid_cell_meters:
        Grid-index cell size.
    trace / trace_out / metrics_out:
        Flush telemetry (:mod:`repro.obs`). ``trace=True`` records
        structured spans (flush → snapshot → quote → solve → commit,
        with per-column and per-shard children) on the run's
        :class:`~repro.obs.Tracer`; ``trace_out`` additionally writes
        them as Chrome trace-event JSONL (Perfetto-loadable; requires
        ``trace=True``); ``metrics_out`` writes the run's
        :class:`~repro.obs.MetricsRegistry` (p50/p90/p99 latency
        histograms) as ``metrics.json`` and works with tracing off.
        Telemetry is write-only: no dispatch decision reads it, so
        every determinism pin holds bit-for-bit with ``trace=True``
        (``docs/determinism.md``).
    timeseries_out / timeseries_window_s / timeseries_ring:
        Live-ops time series (:mod:`repro.obs.live`). ``timeseries_out``
        writes one JSONL row per completed *simulated-time* window
        (length ``timeseries_window_s`` seconds) with throughput,
        per-window counter deltas and histogram summaries, and rolling
        quantiles merged over the last ``timeseries_ring`` windows.
        Like all telemetry it is write-only: a run with the live layer
        enabled is bit-identical to one without it (determinism
        contract 9).
    slo / slo_out:
        Service-level objectives (:mod:`repro.obs.slo`). ``slo`` is a
        comma-joined spec such as
        ``"service_rate>=0.9,wait_p99<=300"`` evaluated per time-series
        window with burn-rate alerting; ``slo_out`` writes the
        machine-readable verdict document (``slo.json``; requires
        ``slo``). Verdicts use simulated-time metrics only, so a fixed
        seed reproduces ``slo.json`` exactly.
    live_report_every:
        Print one console status line every N completed time-series
        windows (0 = never). Implies the live layer.
    resource_monitor:
        Sample RSS, GC pauses (and tracemalloc peak, if the caller
        started tracemalloc) into the registry once per time-series
        window
        (:mod:`repro.obs.resources`).
    fault_spec / fault_seed:
        Deterministic fault injection (:mod:`repro.faults`).
        ``fault_spec`` is a comma-joined list of
        ``site:kind:trigger[:delay_s]`` clauses (see
        ``docs/robustness.md`` for the grammar); ``None`` (default)
        disarms the injector entirely — determinism contract 10
        guarantees the hardened pipeline is then bit-identical to the
        unhardened one. ``fault_seed`` seeds the per-clause RNG streams;
        a fixed ``(fault_spec, fault_seed)`` pair replays bit-identically
        on the serial backend.
    flush_deadline_s:
        Per-flush deadline budget in *charged* seconds (injected delays
        and retry backoffs — virtual time, so serial runs stay
        deterministic). A flush that exhausts it is downgraded to the
        greedy policy for that flush only (the degradation ladder's
        last rung). ``None`` (default) = no deadline.
    task_retries / task_timeout_s / retry_backoff_s / retry_backoff_cap_s:
        Retry policy for hardened tasks (quote columns, shard solves):
        up to ``task_retries`` retries after the first attempt, each
        awaited at most ``task_timeout_s`` seconds (``None`` = no
        timeout), with exponential backoff from ``retry_backoff_s``
        capped at ``retry_backoff_cap_s`` (slept only on the process
        shard backend; charged to the flush budget otherwise).
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
    adaptive_window: bool = False
    window_min_s: float | None = None
    window_max_s: float | None = None
    adaptive_ewma_alpha: float = 0.3
    adaptive_target_batch: float = 12.0
    adaptive_latency_headroom: float = 0.5
    carry_over: bool = False
    num_shards: int = 1
    shard_backend: str = "serial"
    shard_boundary_cells: int | None = None
    grid_cell_meters: float = 500.0
    use_grid_index: bool = True
    #: Assignment objective: "total" (the paper's — minimize the full
    #: augmented-schedule cost) or "delta" (ablation — minimize the extra
    #: cost over the vehicle's current plan).
    objective: str = "total"
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
    timeseries_out: str | None = None
    timeseries_window_s: float = 60.0
    timeseries_ring: int = 5
    slo: str | None = None
    slo_out: str | None = None
    live_report_every: int = 0
    resource_monitor: bool = False
    fault_spec: str | None = None
    fault_seed: int = 0
    flush_deadline_s: float | None = None
    task_retries: int = 2
    task_timeout_s: float | None = None
    retry_backoff_s: float = 0.05
    retry_backoff_cap_s: float = 1.0
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
        if self.adaptive_window:
            if self.batch_window_s <= 0:
                raise ValueError(
                    "adaptive_window requires batched dispatch "
                    "(batch_window_s > 0): immediate per-request dispatch "
                    "has no window to retune"
                )
            if self.window_min_s is None or self.window_max_s is None:
                raise ValueError(
                    "adaptive_window requires both window_min_s and "
                    "window_max_s (the clamp band)"
                )
            if not 0 < self.window_min_s <= self.window_max_s:
                raise ValueError(
                    "need 0 < window_min_s <= window_max_s, got "
                    f"[{self.window_min_s:g}, {self.window_max_s:g}]"
                )
            if not (
                self.window_min_s <= self.batch_window_s <= self.window_max_s
            ):
                raise ValueError(
                    f"batch_window_s ({self.batch_window_s:g}) is the "
                    "initial window and must lie inside "
                    f"[window_min_s, window_max_s] = "
                    f"[{self.window_min_s:g}, {self.window_max_s:g}]"
                )
            if not 0.0 < self.adaptive_ewma_alpha <= 1.0:
                raise ValueError("adaptive_ewma_alpha must be in (0, 1]")
            if self.adaptive_target_batch <= 0:
                raise ValueError("adaptive_target_batch must be positive")
            if self.adaptive_latency_headroom <= 0:
                raise ValueError("adaptive_latency_headroom must be positive")
            if self.window_max_s >= self.constraints.max_wait_seconds:
                raise ValueError(
                    f"window_max_s ({self.window_max_s:g}) must stay under "
                    "the waiting-time guarantee "
                    f"({self.constraints.max_wait_seconds:g} s): requests "
                    "held through a maximal window would already have "
                    "expired at commit"
                )
        elif self.window_min_s is not None or self.window_max_s is not None:
            raise ValueError(
                "window_min_s/window_max_s are the adaptive clamp band "
                "and require adaptive_window=True"
            )
        if self.carry_over and self.batch_window_s <= 0:
            raise ValueError(
                "carry_over requires batched dispatch (batch_window_s > 0): "
                "immediate per-request dispatch has no next window to "
                "carry into"
            )
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        from repro.dispatch.sharding import SHARD_BACKENDS

        if self.shard_backend not in SHARD_BACKENDS:
            known = ", ".join(SHARD_BACKENDS)
            raise ValueError(f"shard_backend must be one of: {known}")
        if self.shard_boundary_cells is not None and self.shard_boundary_cells < 0:
            raise ValueError("shard_boundary_cells must be >= 0 or None")
        if self.dispatch_policy != "sharded" and (
            self.num_shards > 1
            or self.shard_backend != "serial"
            or self.shard_boundary_cells is not None
        ):
            raise ValueError(
                "num_shards/shard_backend/shard_boundary_cells are the "
                'sharded-solve knobs and require dispatch_policy="sharded" '
                f"(got {self.dispatch_policy!r})"
            )
        if (
            self.dispatch_policy == "sharded"
            and self.num_shards > 1
            and not self.use_grid_index
        ):
            raise ValueError(
                "sharded dispatch with num_shards > 1 requires the grid "
                "index (use_grid_index=True): without it every flush "
                "would silently degenerate to a single global shard"
            )
        if self.trace_out is not None and not self.trace:
            raise ValueError(
                "trace_out requires trace=True: there are no spans to "
                "export from an untraced run"
            )
        if self.timeseries_window_s <= 0:
            raise ValueError("timeseries_window_s must be positive")
        if self.timeseries_ring < 1:
            raise ValueError("timeseries_ring must be >= 1")
        if self.live_report_every < 0:
            raise ValueError("live_report_every must be >= 0")
        if self.slo_out is not None and self.slo is None:
            raise ValueError(
                "slo_out requires an SLO spec (slo=...): there is no "
                "verdict to write without objectives"
            )
        from repro.obs.slo import parse_slo_spec

        # Like fault specs: grammar errors (unknown metric, bad
        # operator or threshold) surface at config time, not mid-run.
        parse_slo_spec(self.slo)
        from repro.faults import parse_fault_spec

        # Parse errors (unknown site/kind, malformed trigger) surface
        # here, at config time, not mid-simulation.
        parse_fault_spec(self.fault_spec)
        if self.flush_deadline_s is not None and self.flush_deadline_s <= 0:
            raise ValueError("flush_deadline_s must be positive or None")
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive or None")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.retry_backoff_cap_s < self.retry_backoff_s:
            raise ValueError(
                "retry_backoff_cap_s must be >= retry_backoff_s"
            )
