"""Carry-over batching and the adaptive window, end to end.

Four guarantee families:

* **pinned degeneration** — ``adaptive_window=False, carry_over=False``
  runs through the very same controller-scheduled code path and must be
  bit-identical to the pre-controller fixed window; a degenerate
  adaptive band (``min == initial == max``) must be bit-identical too
  (the controller wiring itself perturbs nothing);
* **conservation** — with carry-over on, every request is settled
  exactly once (assigned or rejected), never lost in the window and
  never double-counted, including requests that expire mid-carry;
* **interplay** — carry-over composes with the sharded policy;
* **determinism** — adaptive + carry-over runs are reproducible given
  the seed, and the window trajectory stays clamped to the band under
  burst load and silence.
"""

import pytest

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulation, simulate
from repro.sim.workload import (
    ShanghaiLikeWorkload,
    bimodal_trips,
    burst_workload,
    phase_metrics,
)


@pytest.fixture(scope="module")
def scenario():
    city = grid_city(14, 14, seed=11)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=11, min_trip_meters=600.0).generate(
        num_trips=80, duration_seconds=1200
    )
    return city, engine, trips


def _deterministic_state(report):
    """Everything a run produces except wall-clock timings."""
    return {
        "num_requests": report.num_requests,
        "num_assigned": report.num_assigned,
        "num_rejected": report.num_rejected,
        "total_cost": report.total_assignment_cost,
        "carry_events": report.carry_events,
        "max_carries": report.max_carries,
        "window_trajectory": list(report.window_trajectory),
        "service_log": {
            rid: {
                "vehicle": entry.get("vehicle"),
                "assigned_cost": entry.get("assigned_cost"),
                "assigned_at": entry.get("assigned_at"),
                "pickup": entry.get("pickup"),
                "dropoff": entry.get("dropoff"),
            }
            for rid, entry in report.service_log.items()
        },
    }


def _run(scenario, **overrides):
    _, engine, trips = scenario
    params = dict(
        num_vehicles=8,
        algorithm="kinetic",
        seed=3,
        dispatch_policy="lap",
        batch_window_s=15.0,
    )
    params.update(overrides)
    return simulate(engine, SimulationConfig(**params), trips)


def _expected_requests(scenario):
    """Requests immediate dispatch would stamp (degenerate specs drop)."""
    _, engine, trips = scenario
    config = SimulationConfig(num_vehicles=8, algorithm="kinetic", seed=3)
    return simulate(engine, config, trips).num_requests


# ----------------------------------------------------------------------
# Pinned degeneration
# ----------------------------------------------------------------------
def test_disabled_config_matches_pre_controller_fixed_window(scenario):
    """The named contract (docs/determinism.md): adaptive-off ≡ fixed
    window. The controller-scheduled chain with everything disabled must
    reproduce the pre-controller flush arithmetic bit for bit — pinned
    against a reference that schedules flushes with the literal
    pre-controller expression."""

    class PreControllerSimulation(Simulation):
        """Schedules flushes exactly as the code did before the window
        controller existed (config arithmetic inline)."""

        def _handle_batch_flush(self, now, queue):
            from repro.sim.events import Event, EventKind

            requests = self.batch_window.flush()
            if requests:
                self._dispatch_batch(requests, now, queue)
            if now < self.horizon:
                queue.push(
                    Event(
                        now + self.config.batch_window_s,
                        EventKind.BATCH_DISPATCH,
                    )
                )

    _, engine, trips = scenario
    config = SimulationConfig(
        num_vehicles=8,
        algorithm="kinetic",
        seed=3,
        dispatch_policy="lap",
        batch_window_s=15.0,
    )
    current = Simulation(engine, config, trips).run()
    reference = PreControllerSimulation(engine, config, trips).run()
    state = _deterministic_state(current)
    ref_state = _deterministic_state(reference)
    # The reference never records a trajectory (it bypasses the
    # controller); everything else must agree bit for bit.
    state.pop("window_trajectory")
    ref_state.pop("window_trajectory")
    assert state == ref_state
    assert current.carry_events == 0
    # And the fixed trajectory really is constant at the config value.
    assert all(w == 15.0 for _, w in current.window_trajectory)


def test_degenerate_band_is_bit_identical_to_fixed_window(scenario):
    """``window_min == initial == window_max`` clamps the adaptive
    controller into a constant — the wiring (retunes, trajectory
    recording) must perturb nothing."""
    fixed = _run(scenario)
    pinned = _run(
        scenario,
        adaptive_window=True,
        window_min_s=15.0,
        window_max_s=15.0,
    )
    assert _deterministic_state(pinned) == _deterministic_state(fixed)


def test_carry_over_off_leaves_results_untouched(scenario):
    """``carry_over=False`` must not change a single assignment even
    though the dispatch call now threads a carry deadline parameter."""
    baseline = _run(scenario)
    explicit = _run(scenario, carry_over=False)
    assert _deterministic_state(explicit) == _deterministic_state(baseline)


# ----------------------------------------------------------------------
# Conservation and expiry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["greedy", "lap", "iterative"])
def test_every_request_settles_exactly_once_with_carry(scenario, policy):
    expected = _expected_requests(scenario)
    report = _run(scenario, dispatch_policy=policy, carry_over=True)
    assert report.num_requests == expected
    assert report.num_assigned + report.num_rejected == expected
    assert len(report.service_log) == report.num_assigned
    assert report.verify_service_guarantees() == []


@pytest.fixture(scope="module")
def overload():
    """A demand stream a 6-vehicle fleet cannot absorb: most requests
    lose several flushes in a row, so carry-over gets real work."""
    city = grid_city(20, 20, seed=11)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=11, min_trip_meters=1500.0).generate(
        num_trips=220, duration_seconds=1800
    )
    return engine, trips


def _run_overload(overload, wait_minutes=6.0, **overrides):
    from repro.core.constraints import ConstraintConfig

    engine, trips = overload
    params = dict(
        num_vehicles=6,
        algorithm="kinetic",
        seed=3,
        dispatch_policy="lap",
        batch_window_s=15.0,
        constraints=ConstraintConfig.from_minutes(wait_minutes, 20.0),
    )
    params.update(overrides)
    return simulate(engine, SimulationConfig(**params), trips)


def test_request_expiring_mid_carry_takes_the_rejection_path(overload):
    """Overflow requests must ride the window for a bounded number of
    flushes and then be *rejected* (not lost, not retried forever) once
    their wait budget cannot reach the next commit."""
    wait_budget = 4.0 * 60.0
    report = _run_overload(overload, wait_minutes=4.0, carry_over=True)
    assert report.num_rejected > 0  # the overflow expired...
    assert report.carry_events > 0  # ...after genuinely riding along
    assert report.max_carries >= 2
    # A request never rides past its wait budget: carry ages are bounded
    # by it, and every settle is final (assigned + rejected = total).
    assert report.carry_age_s.max <= wait_budget + 1e-9
    assert report.num_assigned + report.num_rejected == report.num_requests
    assert report.verify_service_guarantees() == []


def test_carry_rescues_requests_the_in_batch_path_rejects(overload):
    """The service-rate payoff: a request infeasible at its own flush
    (every nearby vehicle committed elsewhere) can become feasible a few
    windows later — new commits drag vehicles toward its origin, riders
    are dropped off, cruise positions move. In-batch settling rejects it
    at the first flush; carry-over keeps it alive while its wait budget
    lasts and assigns strictly more of the stream."""
    without = _run_overload(overload)
    with_carry = _run_overload(overload, carry_over=True)
    assert with_carry.num_assigned > without.num_assigned
    assert with_carry.verify_service_guarantees() == []


# ----------------------------------------------------------------------
# Interplay with sharding
# ----------------------------------------------------------------------
def test_carry_composes_with_sharded_policy(scenario):
    expected = _expected_requests(scenario)
    report = _run(
        scenario, dispatch_policy="sharded", num_shards=3, carry_over=True
    )
    assert report.num_requests == expected
    assert report.shard_sizes.count > 0
    assert report.verify_service_guarantees() == []


# ----------------------------------------------------------------------
# Adaptive trajectory: clamping and determinism
# ----------------------------------------------------------------------
def _bursty_trips(city):
    """Silence, then an airport burst, then silence again."""
    trips = list(
        burst_workload(
            city, center_vertex=90, num_trips=25, request_time=600.0, seed=8
        )
    )
    # Sparse background before and after the burst.
    sparse = ShanghaiLikeWorkload(city, seed=8, min_trip_meters=600.0).generate(
        num_trips=10, duration_seconds=1800
    )
    trips.extend(sparse)
    trips.sort(key=lambda t: t.request_time)
    return trips


def test_window_is_clamped_under_burst_and_silence(scenario):
    city, engine, _ = scenario
    trips = _bursty_trips(city)
    config = SimulationConfig(
        num_vehicles=8,
        algorithm="kinetic",
        seed=8,
        dispatch_policy="lap",
        batch_window_s=6.0,
        adaptive_window=True,
        window_min_s=3.0,
        window_max_s=24.0,
        adaptive_target_batch=6.0,
        carry_over=True,
    )
    report = simulate(engine, config, trips)
    windows = [w for _, w in report.window_trajectory]
    assert windows, "no flush ever recorded a window"
    assert min(windows) >= 3.0 - 1e-12
    assert max(windows) <= 24.0 + 1e-12
    # The burst/silence contrast actually drives the controller to both
    # ends of the band.
    assert min(windows) == pytest.approx(3.0)
    assert max(windows) == pytest.approx(24.0)
    assert report.verify_service_guarantees() == []


def test_adaptive_carry_runs_are_deterministic_given_the_seed(scenario):
    kwargs = dict(
        adaptive_window=True,
        window_min_s=5.0,
        window_max_s=30.0,
        carry_over=True,
    )
    first = _run(scenario, **kwargs)
    second = _run(scenario, **kwargs)
    assert _deterministic_state(first) == _deterministic_state(second)
    assert first.window_trajectory == second.window_trajectory


# ----------------------------------------------------------------------
# The payoff: adaptive + carry-over against every fixed window
# ----------------------------------------------------------------------
def test_adaptive_beats_the_best_fixed_window_on_the_bimodal_workload():
    """On an off-peak lull followed by a rush-hour surge (fleet sized
    for the lull), no fixed window wins both phases. The adaptive band
    with carry-over answers off-peak requests faster than the fixed
    window that serves the surge best, and serves at least as much of
    the surge. All quantities are simulated seconds, not wall-clock."""
    from repro.core.constraints import ConstraintConfig

    window_min_s, window_max_s = 2.0, 30.0
    city = grid_city(28, 28, seed=13)
    engine = MatrixEngine(city)
    trips, split = bimodal_trips(
        city,
        seed=13,
        offpeak_s=1400.0,
        peak_s=700.0,
        offpeak_trips=40,
        peak_trips=180,
        min_trip_meters=1500.0,
    )

    def run(**overrides):
        config = SimulationConfig(
            num_vehicles=10,
            algorithm="kinetic",
            constraints=ConstraintConfig.from_minutes(6.0, 20.0),
            dispatch_policy="lap",
            seed=13,
            **overrides,
        )
        report = simulate(engine, config, trips)
        assert report.verify_service_guarantees() == []
        return report

    fixed = [
        phase_metrics(run(batch_window_s=window), trips, split)
        for window in (5.0, 15.0, 30.0)
    ]
    # Best peak service rate; the windows are ascending, so max() breaks
    # ties toward the shorter (lower-latency) one.
    best_fixed = max(fixed, key=lambda cell: cell["peak_service_rate"])
    report = run(
        batch_window_s=window_min_s,
        adaptive_window=True,
        window_min_s=window_min_s,
        window_max_s=window_max_s,
        adaptive_target_batch=6.0,
        carry_over=True,
    )
    adaptive = phase_metrics(report, trips, split)

    assert adaptive["offpeak_latency_s"] < best_fixed["offpeak_latency_s"]
    assert adaptive["peak_service_rate"] >= best_fixed["peak_service_rate"]
    # The trajectory stays inside the band and visits both regimes: the
    # floor during the lull, the ceiling during the surge.
    windows = [w for _, w in report.window_trajectory]
    assert min(windows) >= window_min_s - 1e-9
    assert max(windows) <= window_max_s + 1e-9
    assert min(windows) <= window_min_s + 1.0
    assert max(windows) >= window_max_s - 1.0
    assert report.carry_events > 0
