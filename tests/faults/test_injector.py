"""FaultInjector determinism, the flush budget, and fault enactment."""

import pytest

from repro.exceptions import (
    FaultInjectedError,
    FlushDeadlineExceededError,
)
from repro.faults import (
    DEFAULT_RETRY,
    FaultInjector,
    FlushBudget,
    NULL_INJECTOR,
    RetryPolicy,
    parse_fault_spec,
    run_with_fault,
)
from repro.obs.metrics import MetricsRegistry


def _draws(injector, site, n):
    return [injector.draw(site) for _ in range(n)]


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_null_injector_is_inert():
    assert not NULL_INJECTOR.enabled
    assert NULL_INJECTOR.draw("quote.task") is None
    assert not NULL_INJECTOR.wants("quote.task")
    assert NULL_INJECTOR.draw_engine() is None


def test_rate_draws_replay_bit_identically():
    plan = parse_fault_spec("quote.task:crash:0.3")
    a = _draws(FaultInjector(plan, seed=42), "quote.task", 200)
    b = _draws(FaultInjector(plan, seed=42), "quote.task", 200)
    assert a == b
    assert any(f is not None for f in a)
    assert any(f is None for f in a)


def test_different_seeds_differ():
    plan = parse_fault_spec("quote.task:crash:0.3")
    a = _draws(FaultInjector(plan, seed=1), "quote.task", 200)
    b = _draws(FaultInjector(plan, seed=2), "quote.task", 200)
    assert a != b


def test_one_shot_fires_exactly_once_at_the_nth_opportunity():
    plan = parse_fault_spec("quote.task:crash:@3")
    injector = FaultInjector(plan, seed=0)
    draws = _draws(injector, "quote.task", 6)
    fired = [i for i, f in enumerate(draws, start=1) if f is not None]
    assert fired == [3]
    assert draws[2].seq == 3


def test_every_nth_fires_periodically():
    plan = parse_fault_spec("quote.task:crash:%2")
    injector = FaultInjector(plan, seed=0)
    draws = _draws(injector, "quote.task", 6)
    fired = [i for i, f in enumerate(draws, start=1) if f is not None]
    assert fired == [2, 4, 6]


def test_clause_streams_are_independent():
    """Adding a clause never perturbs the draws of the ones before it:
    each rate clause owns a (seed, clause_index)-keyed RNG stream and
    consumes exactly one sample per opportunity whether or not it fires."""
    base = parse_fault_spec("quote.task:crash:0.3")
    extended = parse_fault_spec("quote.task:crash:0.3,quote.task:delay:0.9:0.1")
    solo = _draws(FaultInjector(base, seed=7), "quote.task", 100)
    both = _draws(FaultInjector(extended, seed=7), "quote.task", 100)
    for lone, paired in zip(solo, both):
        if lone is not None:
            # The first-listed clause still wins whenever it fires.
            assert paired is not None
            assert paired.kind == "crash"
            assert paired.seq == lone.seq


def test_sites_draw_from_separate_opportunity_counters():
    plan = parse_fault_spec("quote.task:crash:@1,engine.distance_many:crash:@1")
    injector = FaultInjector(plan, seed=0)
    assert injector.draw("engine.distance_many") is not None
    assert injector.draw("quote.task") is not None
    assert injector.draw("quote.task") is None


def test_wants_reflects_armed_sites():
    injector = FaultInjector(parse_fault_spec("quote.task:crash:0.1"), seed=0)
    assert injector.wants("quote.task")
    assert not injector.wants("engine.distance_many")


# ----------------------------------------------------------------------
# Registry accounting
# ----------------------------------------------------------------------
def test_injections_and_retries_are_counted():
    registry = MetricsRegistry()
    plan = parse_fault_spec("quote.task:crash:%1")
    injector = FaultInjector(plan, seed=0, registry=registry)
    injector.draw("quote.task")
    injector.draw("quote.task")
    injector.record_retry("quote.task")
    assert registry.counter("fault.injected").value == 2
    assert registry.counter("fault.injected.quote.task").value == 2
    assert registry.counter("retry.count").value == 1
    assert registry.counter("retry.quote.task").value == 1


# ----------------------------------------------------------------------
# FlushBudget
# ----------------------------------------------------------------------
def test_budget_charges_and_trips():
    budget = FlushBudget(1.0)
    budget.charge(0.6)
    budget.check()  # under budget: fine
    assert not budget.exceeded
    budget.charge(0.6)
    assert budget.exceeded
    with pytest.raises(FlushDeadlineExceededError):
        budget.check()


def test_unbounded_budget_never_trips():
    budget = FlushBudget(None)
    budget.charge(1e9)
    assert not budget.exceeded
    budget.check()


def test_delay_draws_charge_the_budget_virtually():
    plan = parse_fault_spec("quote.task:delay:%1:0.4")
    injector = FaultInjector(plan, seed=0)
    budget = FlushBudget(1.0)
    injector.draw("quote.task", budget=budget)
    fault = injector.draw("quote.task", budget=budget)
    assert budget.spent_s == pytest.approx(0.8)
    # The delay was charged at draw time; enacting it just runs the work.
    assert run_with_fault(fault, lambda: "ok") == "ok"


# ----------------------------------------------------------------------
# Enactment (run_with_fault) and the engine window
# ----------------------------------------------------------------------
def test_run_with_fault_none_is_transparent():
    assert run_with_fault(None, lambda x: x + 1, 2) == 3


def test_crash_fault_raises_before_the_work():
    plan = parse_fault_spec("quote.task:crash:@1")
    fault = FaultInjector(plan, seed=0).draw("quote.task")
    ran = []
    with pytest.raises(FaultInjectedError):
        run_with_fault(fault, ran.append, 1)
    assert ran == []


def test_engine_faults_only_fire_inside_a_window():
    plan = parse_fault_spec("engine.distance_many:crash:%1")
    injector = FaultInjector(plan, seed=0)
    assert injector.draw_engine() is None  # no window open: immune
    with injector.engine_window():
        assert injector.draw_engine() is not None
    assert injector.draw_engine() is None  # window closed again


def test_engine_window_is_null_when_site_unarmed():
    injector = FaultInjector(parse_fault_spec("quote.task:crash:0.1"), seed=0)
    window = injector.engine_window()
    with window:
        assert injector.draw_engine() is None


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_policy_backoff_schedule():
    policy = RetryPolicy(max_attempts=5, backoff_s=0.1, backoff_cap_s=0.3)
    assert policy.backoff_for(1) == 0.0
    assert policy.backoff_for(2) == pytest.approx(0.1)
    assert policy.backoff_for(3) == pytest.approx(0.2)
    assert policy.backoff_for(4) == pytest.approx(0.3)  # capped
    assert policy.backoff_for(5) == pytest.approx(0.3)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_s=-1.0)
    assert DEFAULT_RETRY.max_attempts == 3
