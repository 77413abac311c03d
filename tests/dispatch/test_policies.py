"""Assignment policies over scripted agents with known quote costs."""

import math

import pytest

from repro.core.matching import Dispatcher, Quote, VehicleAgent
from repro.core.request import TripRequest
from repro.core.vehicle import Vehicle
from repro.dispatch.policies import (
    GreedyPolicy,
    IterativePolicy,
    LapPolicy,
    POLICY_REGISTRY,
    make_policy,
)
from repro.dispatch.quoting import QuoteService


class ScriptedAgent(VehicleAgent):
    """Agent quoting scripted costs; each commit inflates later quotes by
    ``commit_penalty`` (``inf`` = refuses a second request outright)."""

    def __init__(self, vehicle_id, costs, commit_penalty=float("inf")):
        super().__init__(Vehicle(vehicle_id, start_vertex=0), engine=None)
        self.costs = dict(costs)
        self.commit_penalty = commit_penalty
        self.committed = []

    def quote(self, request, now):
        if request.request_id not in self.costs:
            return None
        cost = self.costs[request.request_id]
        if self.committed:
            cost += len(self.committed) * self.commit_penalty
        if not math.isfinite(cost):
            return None
        return Quote(
            agent=self, request=request, cost=cost,
            decision_vertex=0, decision_time=now,
        )

    def commit(self, quote):
        self.committed.append(quote.request)

    def next_stop(self):
        return None

    def arrive_next(self):
        raise NotImplementedError

    @property
    def num_active_trips(self):
        return len(self.committed)

    @property
    def load(self):
        return 0


def _request(rid):
    return TripRequest(rid, 0, 5, 100.0, 600.0, 0.2, 100.0)


def _setup(agent_costs, **agent_kwargs):
    agents = [
        ScriptedAgent(vid, costs, **agent_kwargs)
        for vid, costs in enumerate(agent_costs)
    ]
    return Dispatcher(None, agents), agents


# The canonical greedy trap: arrival order gives request 0 the shared
# cheap vehicle, forcing request 1 onto the expensive one.
TRAP = [{0: 10.0, 1: 5.0}, {0: 12.0, 1: 20.0}]


def test_greedy_follows_arrival_order():
    dispatcher, agents = _setup(TRAP)
    batch = GreedyPolicy().assign(dispatcher, [_request(0), _request(1)], 100.0)
    assert [r.winner.vehicle.vehicle_id for r in batch.results] == [0, 1]
    assert [r.cost for r in batch.results] == [10.0, 20.0]
    assert batch.rounds == 0 and batch.solver_seconds == 0.0


def test_lap_finds_global_optimum():
    dispatcher, agents = _setup(TRAP)
    batch = LapPolicy().assign(dispatcher, [_request(0), _request(1)], 100.0)
    assert [r.winner.vehicle.vehicle_id for r in batch.results] == [1, 0]
    assert [r.cost for r in batch.results] == [12.0, 5.0]
    assert sum(r.cost for r in batch.results) < 30.0  # greedy's total
    assert batch.rounds == 1


def test_results_keep_request_order():
    dispatcher, _ = _setup(TRAP)
    batch = LapPolicy().assign(dispatcher, [_request(1), _request(0)], 100.0)
    assert [r.request.request_id for r in batch.results] == [1, 0]


def test_tie_breaks_to_lowest_vehicle_id():
    for policy in (GreedyPolicy(), LapPolicy()):
        dispatcher, _ = _setup([{0: 7.0}, {0: 7.0}])
        batch = policy.assign(dispatcher, [_request(0)], 100.0)
        assert batch.results[0].winner.vehicle.vehicle_id == 0


@pytest.mark.parametrize("carry_deadline", [None, 150.0])
@pytest.mark.parametrize("policy", ["greedy", "lap", "iterative"])
def test_infeasible_request_rejected(policy, carry_deadline):
    """A request no vehicle can serve is rejected in its own flush, also
    with carry-over armed: only requests that had a feasible quote are
    carried (request 1's pickup deadline reaches ``carry_deadline``)."""
    dispatcher, _ = _setup([{0: 3.0}, {0: 4.0}])  # nobody quotes request 1
    batch = make_policy(policy).assign(
        dispatcher, [_request(0), _request(1)], 100.0,
        carry_deadline=carry_deadline,
    )
    assert batch.results[0].assigned
    assert not batch.results[1].assigned
    assert batch.results[1].cost == float("inf")
    assert batch.num_assigned == 1 and batch.num_rejected == 1
    assert batch.carried == []


@pytest.mark.parametrize("carry_deadline", [None, 150.0])
def test_lap_cleanup_pools_leftovers(carry_deadline):
    """A request that loses the assignment round still gets a vehicle via
    the sequential cleanup pass (second commit on the same agent). With
    carry-over armed the loser had a feasible quote, so it is carried to
    the next flush instead and skips the cleanup."""
    dispatcher, agents = _setup(
        [{0: 10.0, 1: 5.0}], commit_penalty=100.0
    )
    batch = LapPolicy().assign(
        dispatcher, [_request(0), _request(1)], 100.0,
        carry_deadline=carry_deadline,
    )
    if carry_deadline is not None:
        assert [r.request.request_id for r in batch.results] == [1]
        assert [c.request.request_id for c in batch.carried] == [0]
        assert len(agents[0].committed) == 1
        return
    assert batch.num_assigned == 2
    assert len(agents[0].committed) == 2
    # The loser re-quoted against the updated (penalised) schedule.
    costs = sorted(r.cost for r in batch.results)
    assert costs == [5.0, 110.0]


def test_iterative_runs_extra_rounds():
    costs = [{0: 10.0, 1: 5.0, 2: 6.0}, {0: 12.0, 1: 20.0, 2: 30.0}]
    dispatcher, _ = _setup(costs, commit_penalty=100.0)
    requests = [_request(0), _request(1), _request(2)]
    batch = IterativePolicy(rounds=3).assign(dispatcher, requests, 100.0)
    assert batch.num_assigned == 3
    assert batch.rounds == 2  # round 1 assigns two, round 2 the third
    # ART samples accumulate across rounds: the round-2 winner was also
    # quoted (by both agents) in round 1.
    round2_winner = next(
        r for r in batch.results if r.request.request_id == 2
    )
    assert len(round2_winner.quote_timings) == 4

    dispatcher, _ = _setup(costs, commit_penalty=100.0)
    lap = LapPolicy().assign(dispatcher, requests, 100.0)
    assert lap.rounds == 1
    assert lap.num_assigned == 3  # cleanup pass covers the leftover


def test_cost_matrix_shape_and_keys():
    dispatcher, agents = _setup(TRAP)
    requests = [_request(0), _request(1)]
    matrix = QuoteService().build(dispatcher, requests, 100.0).matrix
    assert matrix.shape == (2, 2)
    assert matrix.keys[0, 0] == 10.0 and matrix.keys[1, 1] == 20.0
    assert matrix.candidate_counts == [2, 2]
    assert all(len(matrix.row_timings(i)) == 2 for i in range(2))
    quote = matrix.quotes[0][1]
    assert quote.agent is agents[1] and quote.cost == 12.0


def test_empty_batch():
    dispatcher, _ = _setup(TRAP)
    for policy in (GreedyPolicy(), LapPolicy(), IterativePolicy()):
        batch = policy.assign(dispatcher, [], 100.0)
        assert batch.results == [] and batch.batch_size == 0


def test_make_policy_registry():
    assert set(POLICY_REGISTRY) == {"greedy", "lap", "iterative"}
    assert isinstance(make_policy("greedy"), GreedyPolicy)
    assert isinstance(make_policy("lap"), LapPolicy)
    iterative = make_policy("iterative", assignment_rounds=5)
    assert isinstance(iterative, IterativePolicy) and iterative.rounds == 5
    with pytest.raises(ValueError, match="unknown dispatch policy"):
        make_policy("simulated_annealing")
    with pytest.raises(ValueError):
        IterativePolicy(rounds=0)


def test_near_tie_resolves_to_lowest_vehicle_id_like_submit():
    """Costs within submit's 1e-9 tie tolerance: the snapped solver keys
    compare equal, so lap picks the lowest vehicle id — exactly what
    Dispatcher.submit does on the same quotes (previously the solver saw
    the raw floats and handed the request to the nominally-cheaper,
    higher-id vehicle)."""
    agent_costs = [{0: 100.0 + 4e-10}, {0: 100.0}]

    dispatcher, agents = _setup(agent_costs)
    matrix = QuoteService().build(dispatcher, [_request(0)], 100.0).matrix
    assert matrix.keys[0, 0] == matrix.keys[0, 1]
    # Quotes keep the exact (unsnapped) costs.
    assert matrix.quotes[0][0].cost == 100.0 + 4e-10

    batch = LapPolicy().assign(dispatcher, [_request(0)], 100.0)
    assert batch.results[0].winner is agents[0]

    reference, ref_agents = _setup(agent_costs)
    assert reference.submit(_request(0), 100.0).winner is ref_agents[0]


def test_clear_cost_gap_still_wins_over_tie_break():
    """Gaps beyond the snap grid keep strict cost order: the cheaper,
    higher-id vehicle wins as before."""
    dispatcher, agents = _setup([{0: 100.0}, {0: 99.0}])
    batch = LapPolicy().assign(dispatcher, [_request(0)], 100.0)
    assert batch.results[0].winner is agents[1]
