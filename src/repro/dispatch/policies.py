"""Pluggable batch-assignment policies.

Given one window's worth of requests, a :class:`DispatchPolicy` decides
which vehicle (if any) serves each request and commits the winning
quotes. Three policies ship:

* ``greedy`` — the paper's dispatch, applied sequentially in arrival
  order: each request is quoted against its candidates and committed to
  the cheapest. With a zero-length window this *is* immediate dispatch.
* ``lap`` — one global linear-assignment round over the whole batch
  (after Simonetto et al., *Real-time City-scale Ridesharing via Linear
  Assignment Problems*): at most one request per vehicle, minimum total
  cost; requests that lose the round fall back to a sequential
  cheapest-quote cleanup against the updated schedules, so ride-pooling
  (several requests on one vehicle) still happens within the batch.
* ``iterative`` — up to ``rounds`` linear-assignment rounds (after
  Vakayil et al., *Large-Scale Dynamic Ridesharing with Iterative
  Assignment*): unassigned requests are re-quoted against the updated
  vehicle schedules each round, then the same cleanup runs. ``lap`` is
  exactly ``iterative`` with one round.
* ``sharded`` — ``lap`` with the global solve federated over spatial
  shards (:mod:`repro.dispatch.sharding`): the batch is partitioned by
  grid-index region, the per-shard assignments run concurrently on a
  configurable backend, and boundary conflicts are reconciled by a
  deterministic second-stage solve. ``shards=1`` is bit-identical to
  ``lap``.

Within one flush a request that quotes infeasible against every
candidate is rejected outright and not retried: vehicle decision points
are fixed for the flush and schedules only grow, so feasibility can only
shrink between rounds. *Across* flushes feasibility can recover —
vehicles reach stops and free seats — which is what **carry-over
batching** (Simonetto-style, ``carry_deadline`` below) exploits: instead
of settling a losing request in-batch (greedy cleanup or rejection), the
policy hands it back as a :class:`CarriedRequest` and the simulator
rolls it into the next :class:`~repro.dispatch.window.BatchWindow`,
bounded by its remaining wait budget. A request whose pickup deadline
cannot reach the next flush's commit instant takes the existing
in-batch cleanup/rejection path exactly as before.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.core.matching import AssignmentResult, Dispatcher
from repro.core.request import TripRequest
from repro.dispatch.quoting import QuoteService, QuoteSet
from repro.dispatch.solver import solve_assignment
from repro.faults import NULL_INJECTOR
from repro.obs.trace import NULL_TRACER, clock


@dataclass(slots=True)
class CarriedRequest:
    """A request deferred to the next batch window (carry-over).

    ``elapsed`` and ``quote_timings`` are the ACRT/ART debt this flush
    ran up for the request; the simulator accumulates them and folds
    them into the request's final :class:`~repro.core.matching.
    AssignmentResult` when a later flush settles it, so response-time
    metrics cover the full multi-flush search.
    """

    request: TripRequest
    elapsed: float
    quote_timings: list[tuple[int, float]]
    #: True when the carry is the degradation ladder's doing: the
    #: request's quote column(s) failed this flush and the carry path
    #: rescued it instead of letting it be rejected on a fault.
    fault_rescued: bool = False


@dataclass(slots=True)
class BatchResult:
    """Outcome of dispatching one batch.

    ``results`` is in request (arrival) order, one
    :class:`~repro.core.matching.AssignmentResult` per *settled*
    request; ``carried`` holds the requests deferred to the next window
    (empty unless carry-over is enabled — see :class:`CarriedRequest`);
    ``solver_seconds`` is the wall time spent inside the assignment
    solver proper (0 for ``greedy``); ``rounds`` counts the
    linear-assignment rounds actually run. The shard fields are only
    populated by the ``sharded`` policy: requests per solved shard,
    in-worker solve seconds per shard, and how many vehicles were
    claimed by more than one shard (boundary conflicts).
    """

    results: list[AssignmentResult] = field(default_factory=list)
    carried: list[CarriedRequest] = field(default_factory=list)
    solver_seconds: float = 0.0
    rounds: int = 0
    shard_sizes: list[int] = field(default_factory=list)
    shard_solve_seconds: list[float] = field(default_factory=list)
    boundary_conflicts: int = 0
    #: Solve rounds whose shard plan degenerated to one global shard
    #: despite more being requested (no grid index / no coordinates).
    shard_fallbacks: int = 0
    #: Shards re-solved serially in the parent after their fan-out task
    #: exhausted its retry budget (sharded policy only).
    shard_serial_rescues: int = 0

    @property
    def batch_size(self) -> int:
        return len(self.results)

    @property
    def num_assigned(self) -> int:
        return sum(1 for r in self.results if r.assigned)

    @property
    def num_rejected(self) -> int:
        return sum(1 for r in self.results if not r.assigned)


class DispatchPolicy(abc.ABC):
    """Strategy deciding how one batch of requests is matched."""

    #: Registry name; also what ``SimulationConfig.dispatch_policy`` takes.
    name: str = ""

    #: Whether :meth:`assign` consumes a pre-built :class:`QuoteSet`
    #: (the flush only runs the quote stage for policies that do —
    #: ``greedy`` quotes inline, request by request).
    uses_quote_set: bool = False

    @abc.abstractmethod
    def assign(
        self,
        dispatcher: Dispatcher,
        requests: list[TripRequest],
        now: float,
        quote_set: QuoteSet | None = None,
        carry_deadline: float | None = None,
        fault_deadline: float | None = None,
    ) -> BatchResult:
        """Match ``requests`` (arrival order) against the fleet at ``now``,
        committing every winning quote; returns one result per settled
        request (plus the carried remainder).

        ``quote_set`` is the flush's completed quote stage for this
        batch (``None`` = quote here). Policies that
        consume it must treat it as round-1 material only: later rounds
        re-quote against schedules the earlier rounds just changed.

        ``carry_deadline`` enables carry-over batching: a request that
        ends the flush unassigned and whose ``pickup_deadline`` still
        reaches ``carry_deadline`` (the next flush's commit instant) is
        returned in :attr:`BatchResult.carried` instead of being
        settled in-batch. ``None`` (the default) settles every request
        here — today's behavior, bit-identical.

        ``fault_deadline`` arms the degradation ladder's fault-carry
        rung: a request whose quote column(s) *failed* this flush
        (``quote_set.failed_rows``) and whose ``pickup_deadline`` still
        reaches the next flush's commit instant is carried — flagged
        ``fault_rescued`` — rather than rejected on the back of an
        infrastructure fault. Independent of ``carry_deadline`` so the
        rescue works even with carry-over batching disabled.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class GreedyPolicy(DispatchPolicy):
    """Sequential cheapest-quote assignment in arrival order.

    Delegates each request to :meth:`Dispatcher.submit`, so a batch of
    one reproduces immediate dispatch *exactly* — same quotes, same
    tie-breaking, same metrics.
    """

    name = "greedy"

    def assign(
        self,
        dispatcher,
        requests,
        now,
        quote_set=None,
        carry_deadline=None,
        fault_deadline=None,
    ):
        tracer = getattr(dispatcher, "tracer", NULL_TRACER)
        results: list[AssignmentResult] = []
        carried: list[CarriedRequest] = []
        with tracer.span(
            "commit", cat="commit", policy=self.name, requests=len(requests)
        ):
            for request in requests:
                result = dispatcher.submit(request, now)
                self._settle(
                    result, request, carry_deadline, results, carried
                )
        return BatchResult(
            results=results,
            carried=carried,
            solver_seconds=0.0,
            rounds=0,
        )

    @staticmethod
    def _settle(result, request, carry_deadline, results, carried):
        if (
            not result.assigned
            and carry_deadline is not None
            and request.pickup_deadline >= carry_deadline
        ):
            carried.append(
                CarriedRequest(
                    request=request,
                    elapsed=result.elapsed,
                    quote_timings=result.quote_timings,
                )
            )
        else:
            results.append(result)


class _AssignmentRoundsPolicy(DispatchPolicy):
    """Shared machinery for the linear-assignment policies.

    Matrix construction lives in the shared quote service
    (:class:`~repro.dispatch.quoting.QuoteService`): round 1 consumes
    the flush's completed :class:`QuoteSet` when one is handed in, and
    every other build (later rounds, round 1 of the end-of-run safety
    flush) goes through the policy's own service — the same three
    column stages either way.
    """

    uses_quote_set = True

    def __init__(self, rounds: int = 1, injector=NULL_INJECTOR, retry=None):
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.rounds = rounds
        self.quote_service = QuoteService(injector=injector, retry=retry)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rounds={self.rounds})"

    def _solve_matrix(self, dispatcher, matrix):
        """One assignment solve over the batch matrix: returns global
        ``(row, col)`` pairs plus an optional
        :class:`~repro.dispatch.sharding.solver.ShardedSolveOutcome`
        (``None`` here — the base policies solve globally; the sharded
        policy overrides this hook)."""
        return solve_assignment(matrix.keys), None

    def assign(
        self,
        dispatcher,
        requests,
        now,
        quote_set=None,
        carry_deadline=None,
        fault_deadline=None,
    ):
        tracer = getattr(dispatcher, "tracer", NULL_TRACER)
        started = clock()
        if quote_set is not None:
            # Round 1's quoting already ran in the flush's quote stage;
            # credit its wall time into the batch span so the
            # per-request ACRT share keeps covering the full search.
            started -= quote_set.quote_seconds
        solver_seconds = 0.0
        rounds_used = 0
        shard_sizes: list[int] = []
        shard_solve_seconds: list[float] = []
        boundary_conflicts = 0
        shard_fallbacks = 0
        shard_serial_rescues = 0
        results: dict[int, AssignmentResult] = {}
        carried_idx: set[int] = set()
        fault_rescued_idx: set[int] = set()
        pending = list(range(len(requests)))
        # ART samples accumulate across rounds: a request quoted in three
        # rounds contributes all three rounds' quote work, not just the
        # round it was resolved in.
        art_samples: dict[int, list[tuple[int, float]]] = {
            i: [] for i in pending
        }

        def carries_over(i: int) -> bool:
            # A carried request must still be assignable at the *next*
            # flush's commit instant; once its wait budget can no longer
            # reach it, the existing in-batch settle path fires instead.
            return (
                carry_deadline is not None
                and requests[i].pickup_deadline >= carry_deadline
            )

        while pending and rounds_used < self.rounds:
            batch = [requests[i] for i in pending]
            if quote_set is not None and rounds_used == 0:
                # Round 1 of a flush: its quote stage already ran for
                # exactly this batch.
                matrix = quote_set.matrix
            else:
                with tracer.span(
                    "quote",
                    cat="quote",
                    round=rounds_used + 1,
                    requests=len(batch),
                ):
                    matrix = self.quote_service.build(
                        dispatcher, batch, now
                    ).matrix
            rounds_used += 1
            for row, i in enumerate(pending):
                art_samples[i].extend(matrix.row_timings(row))
            feasible_rows = np.isfinite(matrix.keys).any(axis=1)
            for row in np.nonzero(~feasible_rows)[0]:
                i = pending[row]
                if carries_over(i):
                    # Infeasible *now*, but vehicles free up between
                    # flushes — roll into the next window instead of
                    # rejecting.
                    carried_idx.add(i)
                    continue
                if (
                    quote_set is not None
                    and rounds_used == 1
                    and fault_deadline is not None
                    and row in quote_set.failed_rows
                    and requests[i].pickup_deadline >= fault_deadline
                ):
                    # Fault-carry rung: the request looks infeasible
                    # because its quote column(s) *failed*, not because
                    # no vehicle can serve it — carry it to the next
                    # flush instead of rejecting on an infrastructure
                    # fault. (Round 1 only: row indices == quote-set
                    # rows there, and later rounds re-quoted cleanly.)
                    carried_idx.add(i)
                    fault_rescued_idx.add(i)
                    continue
                results[i] = AssignmentResult(
                    request=matrix.requests[row],
                    winner=None,
                    cost=float("inf"),
                    elapsed=0.0,
                    num_candidates=matrix.candidate_counts[row],
                    quote_timings=art_samples[i],
                )
            # The solver stopwatch stays even when untraced: its sum
            # feeds BatchResult.solver_seconds either way. The span adds
            # the per-round decomposition (per-shard children attach to
            # it inside the sharded solve).
            with tracer.span(
                "solve",
                cat="solve",
                round=rounds_used,
                rows=int(matrix.keys.shape[0]),
                cols=int(matrix.keys.shape[1]),
            ):
                t0 = clock()
                pairs, shard_outcome = self._solve_matrix(dispatcher, matrix)
                solver_seconds += clock() - t0
            if shard_outcome is not None:
                shard_sizes.extend(shard_outcome.shard_sizes)
                shard_solve_seconds.extend(shard_outcome.shard_seconds)
                boundary_conflicts += shard_outcome.boundary_conflicts
                if shard_outcome.fallback_reason is not None:
                    shard_fallbacks += 1
                shard_serial_rescues += shard_outcome.serial_rescues
            assigned_rows = set()
            with tracer.span(
                "commit", cat="commit", round=rounds_used, pairs=len(pairs)
            ):
                for row, col in pairs:
                    quote = matrix.quotes[row][col]
                    quote.agent.commit(quote)
                    results[pending[row]] = AssignmentResult(
                        request=quote.request,
                        winner=quote.agent,
                        cost=quote.cost,
                        elapsed=0.0,
                        num_candidates=matrix.candidate_counts[row],
                        quote_timings=art_samples[pending[row]],
                    )
                    assigned_rows.add(row)
            pending = [
                i
                for row, i in enumerate(pending)
                if row not in assigned_rows and feasible_rows[row]
            ]
            if not pairs:
                break
        # Losers of every round: carry-over rolls them into the next
        # window (they wait for the next global solve instead of being
        # resolved greedily in-batch); everyone else takes the cleanup —
        # a sequential re-quote against the updated schedules, where a
        # vehicle that won a request above can still pool a second one.
        with tracer.span("cleanup", cat="commit", pending=len(pending)):
            for i in pending:
                if carries_over(i):
                    carried_idx.add(i)
                    continue
                result = dispatcher.submit(requests[i], now)
                result.quote_timings = art_samples[i] + result.quote_timings
                results[i] = result
        # Each request's ACRT contribution is an even share of the batch
        # wall time (the whole batch was answered by one solve); carried
        # requests take their share along as debt and settle it later.
        share = (clock() - started) / len(requests) if requests else 0.0
        ordered = []
        carried = []
        for i in range(len(requests)):
            if i in carried_idx:
                carried.append(
                    CarriedRequest(
                        request=requests[i],
                        elapsed=share,
                        quote_timings=art_samples[i],
                        fault_rescued=i in fault_rescued_idx,
                    )
                )
                continue
            result = results[i]
            result.elapsed = share
            ordered.append(result)
        return BatchResult(
            results=ordered,
            carried=carried,
            solver_seconds=solver_seconds,
            rounds=rounds_used,
            shard_sizes=shard_sizes,
            shard_solve_seconds=shard_solve_seconds,
            boundary_conflicts=boundary_conflicts,
            shard_fallbacks=shard_fallbacks,
            shard_serial_rescues=shard_serial_rescues,
        )


class LapPolicy(_AssignmentRoundsPolicy):
    """One global linear-assignment round plus greedy cleanup."""

    name = "lap"

    def __init__(self, injector=NULL_INJECTOR, retry=None):
        super().__init__(rounds=1, injector=injector, retry=retry)


class IterativePolicy(_AssignmentRoundsPolicy):
    """Repeated linear-assignment rounds over the shrinking batch."""

    name = "iterative"

    def __init__(self, rounds: int = 3, injector=NULL_INJECTOR, retry=None):
        super().__init__(rounds=rounds, injector=injector, retry=retry)


class ShardedPolicy(_AssignmentRoundsPolicy):
    """Linear assignment federated over spatial shards.

    Identical quoting, bookkeeping and cleanup to :class:`LapPolicy`
    (same base machinery); only the solve step differs — the batch is
    partitioned by grid region (:class:`~repro.dispatch.sharding.
    partitioner.ShardPartitioner`), per-shard Hungarian solves fan out
    over a :class:`~repro.dispatch.sharding.executor.ShardExecutor`, and
    the :class:`~repro.dispatch.sharding.reconciler.BoundaryReconciler`
    resolves vehicles claimed by several shards. With ``num_shards=1``
    (any backend) the solve is bit-identical to ``lap``.
    """

    name = "sharded"

    def __init__(
        self,
        num_shards: int = 1,
        backend: str = "serial",
        boundary_cells: int | None = None,
        rounds: int = 1,
        max_workers: int | None = None,
        injector=NULL_INJECTOR,
        retry=None,
    ):
        from repro.dispatch.sharding import ShardExecutor, ShardPartitioner

        super().__init__(rounds=rounds, injector=injector, retry=retry)
        self.partitioner = ShardPartitioner(
            num_shards, boundary_cells=boundary_cells
        )
        self.executor = ShardExecutor(
            backend,
            max_workers=max_workers,
            injector=injector,
            retry=retry,
        )

    def __repr__(self) -> str:
        return (
            f"ShardedPolicy(num_shards={self.partitioner.num_shards}, "
            f"backend={self.executor.backend!r}, "
            f"boundary_cells={self.partitioner.boundary_cells}, "
            f"rounds={self.rounds})"
        )

    def _solve_matrix(self, dispatcher, matrix):
        from repro.dispatch.sharding import solve_sharded

        plan = self.partitioner.plan(
            matrix,
            grid_index=dispatcher.grid_index,
            coords=dispatcher.engine.graph.coords,
        )
        outcome = solve_sharded(
            matrix.keys,
            plan,
            self.executor,
            tracer=getattr(dispatcher, "tracer", NULL_TRACER),
        )
        return outcome.pairs, outcome

    def close(self) -> None:
        """Release the executor's worker pool (process backend)."""
        self.executor.close()


#: Policy name -> class, for config validation and construction.
POLICY_REGISTRY: dict[str, type[DispatchPolicy]] = {
    GreedyPolicy.name: GreedyPolicy,
    LapPolicy.name: LapPolicy,
    IterativePolicy.name: IterativePolicy,
    ShardedPolicy.name: ShardedPolicy,
}


def make_policy(
    name: str,
    assignment_rounds: int = 3,
    *,
    num_shards: int = 1,
    shard_backend: str = "serial",
    shard_boundary_cells: int | None = None,
    shard_max_workers: int | None = None,
    injector=NULL_INJECTOR,
    retry=None,
) -> DispatchPolicy:
    """Instantiate a policy by registry name.

    ``assignment_rounds`` only applies to ``iterative``; the ``shard_*``
    keywords only to ``sharded``. ``injector`` / ``retry`` thread the
    fault-tolerance layer into the policy's quote service and (for
    ``sharded``) shard executor; ``greedy`` runs unhardened by design —
    it is the ladder's last rung and must stay fault-immune.
    """
    try:
        cls = POLICY_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise ValueError(
            f"unknown dispatch policy {name!r}; known: {known}"
        ) from None
    if cls is IterativePolicy:
        return IterativePolicy(
            rounds=assignment_rounds, injector=injector, retry=retry
        )
    if cls is ShardedPolicy:
        return ShardedPolicy(
            num_shards=num_shards,
            backend=shard_backend,
            boundary_cells=shard_boundary_cells,
            max_workers=shard_max_workers,
            injector=injector,
            retry=retry,
        )
    if cls is GreedyPolicy:
        return GreedyPolicy()
    return cls(injector=injector, retry=retry)
