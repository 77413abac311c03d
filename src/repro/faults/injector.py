"""Seeded deterministic fault injection for the flush pipeline.

The :class:`FaultInjector` turns a parsed :class:`~repro.faults.plan.
FaultPlan` into concrete :class:`InjectedFault` directives. Draws are
made at deterministic points — once per quote-column attempt for
``quote.task``, inside an explicit *engine window* for
``engine.distance_many`` — and each clause owns an
independent RNG stream seeded from ``(fault_seed, clause_index)``, so:

* an empty plan consumes nothing and the injector is a literal no-op;
* a fixed ``(plan, seed)`` replays the same faults at the same
  opportunities, run after run;
* adding a clause never perturbs the draws of the clauses before it.

A ``crash`` directive raises inside the task it rides. Nothing ever
sleeps: an injected ``delay`` is charged *virtually* against the
flush's :class:`FlushBudget` at draw time, which keeps runs
deterministic and fast while still exercising the deadline-degradation
rung.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.exceptions import FaultInjectedError, FlushDeadlineExceededError
from repro.faults.plan import FaultPlan
from repro.obs.trace import NULL_TRACER, clock


@dataclass(frozen=True, slots=True)
class InjectedFault:
    """One concrete fault directive drawn at one opportunity."""

    site: str
    kind: str
    #: The opportunity ordinal (1-based, per site) that fired.
    seq: int
    delay_s: float = 0.0


@dataclass(slots=True)
class TaskFailure:
    """A structured task failure: what the hardened quote stage records
    instead of silently swallowing (or fatally raising) an exception
    once the retry budget is spent."""

    site: str
    task_id: int | None
    attempts: int
    error: BaseException


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retries with capped exponential backoff.

    ``max_attempts`` counts the first try; attempt ``n`` (n >= 2) backs
    off ``min(backoff_s * 2**(n-2), backoff_cap_s)`` seconds, charged
    virtually against the flush budget (nothing sleeps).
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_cap_s: float = 1.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff seconds must be >= 0")

    def backoff_for(self, attempt: int) -> float:
        """Backoff before ``attempt`` (2-based; attempt 1 never waits)."""
        if attempt <= 1:
            return 0.0
        return min(self.backoff_s * 2 ** (attempt - 2), self.backoff_cap_s)


DEFAULT_RETRY = RetryPolicy()


class FlushBudget:
    """One flush's deadline budget, in *modeled* seconds.

    Injected delays and retry backoffs are charged here at draw time —
    deterministically — and the quote stage checks the budget between
    attempts. ``deadline_s=None`` never trips. ``charge`` only records
    (it may run mid-task, inside an engine fan-out); ``check`` raises
    :class:`~repro.exceptions.FlushDeadlineExceededError` at the
    controlled points where the ladder can act on it.
    """

    __slots__ = ("deadline_s", "spent_s", "_lock")

    def __init__(self, deadline_s: float | None = None):
        self.deadline_s = deadline_s
        self.spent_s = 0.0
        self._lock = threading.Lock()

    @property
    def exceeded(self) -> bool:
        return self.deadline_s is not None and self.spent_s > self.deadline_s

    def charge(self, seconds: float) -> None:
        if seconds <= 0:
            return
        with self._lock:
            self.spent_s += seconds

    def check(self) -> None:
        if self.exceeded:
            raise FlushDeadlineExceededError(self.deadline_s, self.spent_s)


class _EngineGate(threading.local):
    """Thread-local gate restricting ``engine.distance_many`` faults to
    read-only quote computation (see :meth:`FaultInjector.engine_window`)."""

    def __init__(self):
        self.active = False
        self.budget: FlushBudget | None = None


class _EngineWindow:
    __slots__ = ("_injector", "_budget", "_prev")

    def __init__(self, injector, budget):
        self._injector = injector
        self._budget = budget
        self._prev = None

    def __enter__(self):
        gate = self._injector._gate
        self._prev = (gate.active, gate.budget)
        gate.active = True
        gate.budget = self._budget
        return self

    def __exit__(self, *exc):
        gate = self._injector._gate
        gate.active, gate.budget = self._prev


class _NullWindow:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_WINDOW = _NullWindow()


class FaultInjector:
    """Draws faults from a plan; counts them into the metrics registry.

    With no plan (or an empty one) every method is a fast no-op:
    ``draw`` returns ``None`` without taking the lock or consuming any
    randomness, ``engine_window`` returns a shared null context. The
    pipeline can therefore thread one injector through unconditionally.
    """

    def __init__(
        self,
        plan: FaultPlan | None = None,
        seed: int = 0,
        registry=None,
        tracer=NULL_TRACER,
    ):
        self.plan = plan if plan is not None else FaultPlan()
        self.seed = seed
        self.registry = registry
        self.tracer = tracer
        self.enabled = not self.plan.empty
        self._lock = threading.Lock()
        self._gate = _EngineGate()
        self._opportunities: dict[str, int] = {}
        #: site -> [(clause, rng-or-None)]; rate clauses own one
        #: np RNG stream each, seeded (seed, clause_index).
        self._armed: dict[str, list[tuple[object, object]]] = {}
        for site in self.plan.sites():
            armed = []
            for idx, clause in self.plan.indexed_clauses_for(site):
                rng = (
                    np.random.default_rng([seed, idx])
                    if clause.rate is not None
                    else None
                )
                armed.append((clause, rng))
            self._armed[site] = armed
            self._opportunities[site] = 0

    def __repr__(self) -> str:
        return (
            f"FaultInjector(clauses={len(self.plan.clauses)}, "
            f"seed={self.seed}, enabled={self.enabled})"
        )

    def wants(self, site: str) -> bool:
        """Whether any clause targets ``site``."""
        return site in self._armed

    # ------------------------------------------------------------------
    def draw(self, site: str, budget: FlushBudget | None = None) -> InjectedFault | None:
        """One opportunity at ``site``: returns the fault directive to
        enact, or ``None``. Each rate clause consumes exactly one RNG
        sample per opportunity whether or not it fires, so firing
        patterns depend only on opportunity counts — not on what other
        clauses did. Injected delays are charged against ``budget`` here,
        at draw time (virtually, so deterministically)."""
        armed = self._armed.get(site)
        if not armed:
            return None
        with self._lock:
            self._opportunities[site] += 1
            seq = self._opportunities[site]
            fired = None
            for clause, rng in armed:
                if clause.rate is not None:
                    hit = rng.random() < clause.rate
                elif clause.every is not None:
                    hit = seq % clause.every == 0
                else:
                    hit = seq == clause.at
                if hit and fired is None:
                    fired = clause
        if fired is None:
            return None
        fault = InjectedFault(
            site=site, kind=fired.kind, seq=seq, delay_s=fired.delay_s
        )
        if fault.kind == "delay" and budget is not None:
            budget.charge(fault.delay_s)
        self._record_injection(fault)
        return fault

    def _record_injection(self, fault: InjectedFault) -> None:
        if self.registry is not None:
            self.registry.counter("fault.injected").inc()
            self.registry.counter(f"fault.injected.{fault.site}").inc()
        if self.tracer.enabled:
            now = clock()
            self.tracer.emit(
                "fault.inject",
                "fault",
                now,
                now,
                site=fault.site,
                kind=fault.kind,
                seq=fault.seq,
            )

    # ------------------------------------------------------------------
    def engine_window(self, budget: FlushBudget | None = None):
        """Context manager opening an ``engine.distance_many`` fault
        window on the current thread: only fan-outs inside it (the
        read-only quote computations, which are safe to retry) draw
        engine faults. The greedy fallback and the commit/cleanup paths
        stay immune by design — the ladder's last rung must be reliable.
        """
        if not self.wants("engine.distance_many"):
            return _NULL_WINDOW
        return _EngineWindow(self, budget)

    def draw_engine(self) -> InjectedFault | None:
        """Draw at ``engine.distance_many`` if the current thread is
        inside an engine window."""
        gate = self._gate
        if not gate.active:
            return None
        return self.draw("engine.distance_many", budget=gate.budget)

    # ------------------------------------------------------------------
    def record_retry(self, site: str) -> None:
        if self.registry is not None:
            self.registry.counter("retry.count").inc()
            self.registry.counter(f"retry.{site}").inc()


#: Shared disabled injector: the default everywhere an injector can be
#: threaded through. Draws nothing, counts nothing.
NULL_INJECTOR = FaultInjector()


def run_with_fault(fault: InjectedFault | None, fn, /, *args, **kwargs):
    """Enact ``fault`` (if any) around ``fn(*args, **kwargs)``.

    ``crash`` raises :class:`~repro.exceptions.FaultInjectedError` before
    the work runs. ``delay`` was already charged to the flush budget at
    draw time, so the work then runs as usual. With ``fault=None`` this
    is exactly ``fn(...)``.
    """
    if fault is not None and fault.kind == "crash":
        raise FaultInjectedError(fault.site, fault.seq)
    return fn(*args, **kwargs)
