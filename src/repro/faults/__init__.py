"""Deterministic fault injection and the hardened-execution toolkit.

``repro.faults`` is the robustness layer's home: the fault-spec grammar
(:mod:`~repro.faults.plan`), the seeded :class:`FaultInjector` that
turns a plan into concrete :class:`InjectedFault` directives at named
pipeline sites, and the retry/budget primitives the hardened quote stage
(:class:`~repro.dispatch.quoting.QuoteService`) is built on. See
``docs/robustness.md`` for the grammar and the degradation ladder, and
determinism contract 10 in ``docs/determinism.md`` for the guarantees.
"""

from repro.faults.injector import (
    DEFAULT_RETRY,
    FaultInjector,
    FlushBudget,
    InjectedFault,
    NULL_INJECTOR,
    RetryPolicy,
    TaskFailure,
    run_with_fault,
)
from repro.faults.plan import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultClause,
    FaultPlan,
    parse_fault_spec,
)

__all__ = [
    "DEFAULT_RETRY",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultClause",
    "FaultInjector",
    "FaultPlan",
    "FlushBudget",
    "InjectedFault",
    "NULL_INJECTOR",
    "RetryPolicy",
    "TaskFailure",
    "parse_fault_spec",
    "run_with_fault",
]
