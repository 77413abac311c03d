"""Batched dispatch: quote -> solve -> commit in one synchronous flush.

The layer between the request stream and the vehicle agents. Immediate
dispatch (the paper's Section VI) is the degenerate case of a zero-length
window under the ``greedy`` policy; with a positive ``batch_window_s``
the simulator accumulates requests in a :class:`BatchWindow` and runs
each flush through three stages, back to back at the flush instant:

* **quote** — a :class:`QuoteService` builds the batch's per-vehicle
  :class:`CostMatrix` columns (:func:`plan_columns` ->
  :func:`quote_column` -> :func:`assemble_matrix`) under the
  fault-tolerance layer (see :mod:`repro.dispatch.quoting`).
* **solve** — a pluggable :class:`DispatchPolicy` consumes the completed
  :class:`QuoteSet`:

  * :class:`GreedyPolicy` — paper-equivalent sequential cheapest-quote
    (quotes inline; no matrix);
  * :class:`LapPolicy` — one optimal request x vehicle linear assignment
    (pure-numpy Hungarian solver, :func:`solve_assignment`);
  * :class:`IterativePolicy` — repeated assignment rounds re-quoting
    unassigned requests against updated schedules;
  * :class:`ShardedPolicy` — ``lap`` with the global solve federated over
    grid-region shards (:mod:`repro.dispatch.sharding`): concurrent
    per-shard Hungarian solves plus deterministic boundary
    reconciliation; ``shards=1`` is bit-identical to ``lap``.

* **commit** — winning quotes are adopted by their vehicles; the
  simulator schedules fresh stop events for the winners. With
  carry-over batching enabled, requests that lose the flush but still
  have wait budget left re-enter the next window
  (:class:`CarriedRequest`) instead of being settled in-batch.

The flush cadence itself is owned by a window controller
(:mod:`repro.dispatch.adaptive`): fixed (the configured
``batch_window_s``, bit-identical to the pre-controller scheduling) or
adaptive (per-flush retuning from the observed arrival intensity,
clamped to ``[window_min_s, window_max_s]``).

Cost matrices are built per vehicle, so a vehicle quoting many requests
computes its decision point once and reuses its shortest-path locality
across the batch.
"""

from repro.dispatch.adaptive import (
    AdaptiveWindowController,
    FixedWindowController,
    make_window_controller,
)

from repro.dispatch.costs import (
    ColumnPlan,
    ColumnQuotes,
    CostMatrix,
    assemble_matrix,
    build_cost_matrix,
    plan_columns,
    quote_column,
)
from repro.dispatch.dispatcher import BatchDispatcher
from repro.dispatch.policies import (
    BatchResult,
    CarriedRequest,
    DispatchPolicy,
    GreedyPolicy,
    IterativePolicy,
    LapPolicy,
    POLICY_REGISTRY,
    ShardedPolicy,
    make_policy,
)
from repro.dispatch.quoting import PendingQuotes, QuoteService, QuoteSet
from repro.dispatch.sharding import (
    SHARD_BACKENDS,
    BoundaryReconciler,
    ShardExecutor,
    ShardPartitioner,
    ShardPlan,
    WorkerPool,
    solve_sharded,
)
from repro.dispatch.solver import assignment_cost, solve_assignment
from repro.dispatch.window import BatchWindow

__all__ = [
    "AdaptiveWindowController",
    "BatchDispatcher",
    "BatchResult",
    "BatchWindow",
    "BoundaryReconciler",
    "CarriedRequest",
    "ColumnPlan",
    "ColumnQuotes",
    "CostMatrix",
    "DispatchPolicy",
    "FixedWindowController",
    "GreedyPolicy",
    "IterativePolicy",
    "LapPolicy",
    "POLICY_REGISTRY",
    "PendingQuotes",
    "QuoteService",
    "QuoteSet",
    "SHARD_BACKENDS",
    "ShardExecutor",
    "ShardPartitioner",
    "ShardPlan",
    "ShardedPolicy",
    "WorkerPool",
    "assemble_matrix",
    "assignment_cost",
    "build_cost_matrix",
    "make_policy",
    "make_window_controller",
    "plan_columns",
    "quote_column",
    "solve_sharded",
    "solve_assignment",
]
