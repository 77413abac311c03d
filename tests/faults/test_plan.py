"""The fault-spec grammar: what parses, what is rejected, and how."""

import pytest

from repro.faults import FAULT_KINDS, FAULT_SITES, FaultPlan, parse_fault_spec


def test_empty_and_none_specs_yield_the_empty_plan():
    for spec in (None, "", "   ", ",", " , "):
        plan = parse_fault_spec(spec)
        assert plan.empty
        assert plan.clauses == ()


def test_rate_clause_parses():
    plan = parse_fault_spec("quote.task:crash:0.05")
    (clause,) = plan.clauses
    assert clause.site == "quote.task"
    assert clause.kind == "crash"
    assert clause.rate == pytest.approx(0.05)
    assert clause.every is None and clause.at is None
    assert clause.delay_s == 0.0


def test_one_shot_and_every_nth_triggers_parse():
    plan = parse_fault_spec("quote.task:crash:@3,quote.task:crash:%2")
    at, every = plan.clauses
    assert at.at == 3 and at.rate is None and at.every is None
    assert every.every == 2 and every.rate is None and every.at is None


def test_delay_clause_requires_and_takes_seconds():
    plan = parse_fault_spec("engine.distance_many:delay:0.5:0.25")
    (clause,) = plan.clauses
    assert clause.kind == "delay"
    assert clause.delay_s == pytest.approx(0.25)
    with pytest.raises(ValueError, match="needs a delay"):
        parse_fault_spec("quote.task:delay:0.5")
    with pytest.raises(ValueError, match="positive"):
        parse_fault_spec("quote.task:delay:0.5:0")
    with pytest.raises(ValueError, match="fourth field"):
        parse_fault_spec("quote.task:crash:0.5:1.0")


def test_site_and_kind_membership_enforced():
    with pytest.raises(ValueError, match="unknown fault site"):
        parse_fault_spec("quote.column:crash:0.1")
    with pytest.raises(ValueError, match="unknown fault kind"):
        parse_fault_spec("quote.task:explode:0.1")


def test_kind_site_compatibility():
    # Every kind applies at every site: both sites are task-level.
    for site in FAULT_SITES:
        parse_fault_spec(f"{site}:crash:0.1,{site}:delay:0.1:1.0")
    # The worker-pool site left with the pool.
    with pytest.raises(ValueError, match="unknown fault site"):
        parse_fault_spec("pool.submit:crash:%100")


def test_trigger_validation():
    with pytest.raises(ValueError, match="integer"):
        parse_fault_spec("quote.task:crash:@x")
    with pytest.raises(ValueError, match="N >= 1"):
        parse_fault_spec("quote.task:crash:%0")
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        parse_fault_spec("quote.task:crash:1.5")
    with pytest.raises(ValueError, match="must be a rate"):
        parse_fault_spec("quote.task:crash:sometimes")
    with pytest.raises(ValueError, match="must look like"):
        parse_fault_spec("quote.task:crash")


def test_multi_clause_specs_keep_order_and_skip_blanks():
    plan = parse_fault_spec(
        "quote.task:crash:0.01, engine.distance_many:delay:@1:0.5 ,,"
        "quote.task:crash:%9"
    )
    assert [c.site for c in plan.clauses] == [
        "quote.task",
        "engine.distance_many",
        "quote.task",
    ]
    assert plan.sites() == {"quote.task", "engine.distance_many"}
    assert plan.indexed_clauses_for("engine.distance_many") == [
        (1, plan.clauses[1])
    ]


def test_clause_labels_round_trip():
    spec = "quote.task:crash:0.05,engine.distance_many:delay:@1:0.5,quote.task:crash:%9"
    plan = parse_fault_spec(spec)
    assert ",".join(c.label() for c in plan.clauses) == spec
    assert parse_fault_spec(
        ",".join(c.label() for c in plan.clauses)
    ) == FaultPlan(plan.clauses)


def test_registry_constants_are_closed():
    assert FAULT_SITES == ("quote.task", "engine.distance_many")
    assert FAULT_KINDS == ("crash", "delay")
