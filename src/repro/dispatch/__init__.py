"""Batched dispatch: quote -> solve -> commit in one synchronous flush.

The layer between the request stream and the vehicle agents. Immediate
dispatch (the paper's Section VI) is the degenerate case of a zero-length
window under the ``greedy`` policy; with a positive ``batch_window_s``
the simulator accumulates requests in a :class:`BatchWindow` and runs
each flush through three stages, back to back at the flush instant:

* **quote** — a :class:`QuoteService` builds the batch's per-vehicle
  :class:`CostMatrix` columns (:func:`plan_columns` ->
  :func:`quote_column` -> :func:`assemble_matrix`) on the calling
  thread (see :mod:`repro.dispatch.quoting`).
* **solve** — a pluggable :class:`DispatchPolicy` consumes the completed
  :class:`QuoteSet`:

  * :class:`GreedyPolicy` — paper-equivalent sequential cheapest-quote
    (quotes inline; no matrix);
  * :class:`LapPolicy` — one optimal request x vehicle linear assignment
    (:func:`solve_assignment`, scipy's LAP solver);
  * :class:`IterativePolicy` — repeated assignment rounds re-quoting
    unassigned requests against updated schedules.

* **commit** — winning quotes are adopted by their vehicles; the
  simulator schedules fresh stop events for the winners. With
  carry-over batching enabled, requests that lose the flush but still
  have wait budget left re-enter the next window
  (:class:`CarriedRequest`) instead of being settled in-batch.

Cost matrices are built per vehicle, so a vehicle quoting many requests
computes its decision point once and reuses its shortest-path locality
across the batch.
"""

from repro.dispatch.costs import (
    ColumnPlan,
    ColumnQuotes,
    CostMatrix,
    assemble_matrix,
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
    make_policy,
)
from repro.dispatch.quoting import PendingQuotes, QuoteService, QuoteSet
from repro.dispatch.solver import assignment_cost, solve_assignment
from repro.dispatch.window import BatchWindow

__all__ = [
    "BatchDispatcher",
    "BatchResult",
    "BatchWindow",
    "CarriedRequest",
    "ColumnPlan",
    "ColumnQuotes",
    "CostMatrix",
    "DispatchPolicy",
    "GreedyPolicy",
    "IterativePolicy",
    "LapPolicy",
    "POLICY_REGISTRY",
    "PendingQuotes",
    "QuoteService",
    "QuoteSet",
    "assemble_matrix",
    "assignment_cost",
    "make_policy",
    "plan_columns",
    "quote_column",
    "solve_assignment",
]
