"""The final partial batch window is always flushed.

The periodic ``BATCH_DISPATCH`` chain used to end on a float comparison
(``next <= horizon + window``) that could stop one window early under
accumulation error, silently stranding whatever the last window had
collected. Two defenses now exist and both are pinned here:

* the chain condition is ``now < horizon`` — it keeps flushing until the
  first flush at or after the last request arrival, which provably
  covers every arrival;
* the run loop's end-of-simulation safety net flushes any requests still
  sitting in the window once the event queue drains, whatever broke the
  chain.
"""

import pytest

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulation, simulate
from repro.sim.workload import ShanghaiLikeWorkload


@pytest.fixture(scope="module")
def scenario():
    city = grid_city(12, 12, seed=6)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=6, min_trip_meters=500.0).generate(
        num_trips=60, duration_seconds=900
    )
    return engine, trips


def _expected_requests(engine, trips):
    """Requests immediate dispatch would stamp (degenerate specs drop)."""
    config = SimulationConfig(num_vehicles=8, algorithm="kinetic", seed=2)
    return simulate(engine, config, trips).num_requests


class BrokenChainSimulation(Simulation):
    """A flush chain that dies after the first flush — the worst-case
    stand-in for any chain-end bug (float accumulation, off-by-one):
    every later arrival lands in the window with no flush scheduled."""

    def _handle_batch_flush(self, now, queue):
        requests = self.batch_window.flush()
        if requests:
            self._dispatch_batch(requests, now, queue)
        # Deliberately never schedules the next BATCH_DISPATCH.


def test_broken_chain_tail_is_flushed_by_safety_net(scenario):
    engine, trips = scenario
    expected = _expected_requests(engine, trips)
    config = SimulationConfig(
        num_vehicles=8,
        algorithm="kinetic",
        seed=2,
        dispatch_policy="lap",
        batch_window_s=20.0,
    )
    report = BrokenChainSimulation(engine, config, trips).run()
    # Without the end-of-run safety flush everything after the first
    # window would vanish; with it, every request is answered.
    assert report.num_requests == expected
    assert report.verify_service_guarantees() == []


@pytest.mark.parametrize("window", [0.7, 1.3, 7.0, 20.0, 60.0])
@pytest.mark.parametrize("policy", ["greedy", "lap"])
def test_every_request_is_dispatched_for_awkward_windows(
    scenario, window, policy
):
    """No tail request is ever silently dropped, whatever the window
    length's float behavior over hundreds of accumulated flushes."""
    engine, trips = scenario
    expected = _expected_requests(engine, trips)
    config = SimulationConfig(
        num_vehicles=8,
        algorithm="kinetic",
        seed=2,
        dispatch_policy=policy,
        batch_window_s=window,
    )
    report = simulate(engine, config, trips)
    assert report.num_requests == expected
    assert len(report.service_log) == report.num_assigned


def test_pipeline_final_flush_commits_after_horizon(scenario):
    """The last flush lands at or after the final arrival; its batch
    must still quote, solve, commit and be serviced to the dropoff."""
    engine, trips = scenario
    expected = _expected_requests(engine, trips)
    config = SimulationConfig(
        num_vehicles=8,
        algorithm="kinetic",
        seed=2,
        dispatch_policy="lap",
        batch_window_s=20.0,
    )
    report = simulate(engine, config, trips)
    assert report.num_requests == expected
    assert report.verify_service_guarantees() == []
    for rid, entry in report.service_log.items():
        assert "dropoff" in entry, f"request {rid} never completed"


def test_flush_chain_reaches_horizon(scenario):
    """The chain's last flush is at or after the last arrival: popping
    the queue must never leave a pending window behind (the safety net
    stays dormant on healthy chains)."""
    engine, trips = scenario
    config = SimulationConfig(
        num_vehicles=8,
        algorithm="kinetic",
        seed=2,
        dispatch_policy="lap",
        batch_window_s=13.0,
    )
    sim = Simulation(engine, config, trips)
    flushes = []
    original = Simulation._handle_batch_flush

    def spying_flush(self, now, queue):
        flushes.append(now)
        return original(self, now, queue)

    sim._handle_batch_flush = spying_flush.__get__(sim)
    sim.run()
    assert flushes, "no flush ever ran"
    assert flushes[-1] >= sim.horizon
    assert len(sim.batch_window) == 0
