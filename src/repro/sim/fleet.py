"""Fleet construction.

"A vehicle is initialized to a random vertex in the city" (Section VI);
each vehicle gets its own deterministic cruising RNG stream derived from
the master seed, and an agent matching the configured algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import make_algorithm
from repro.core.matching import KineticAgent, RescheduleAgent, VehicleAgent
from repro.core.vehicle import Vehicle
from repro.sim.config import SimulationConfig


def build_fleet(
    engine, config: SimulationConfig, start_time: float = 0.0
) -> list[VehicleAgent]:
    """Create ``config.num_vehicles`` agents at random vertices."""
    rng = np.random.default_rng(config.seed)
    n = engine.graph.num_vertices
    starts = rng.integers(0, n, size=config.num_vehicles)
    agents: list[VehicleAgent] = []
    for vid in range(config.num_vehicles):
        vehicle = Vehicle(
            vehicle_id=vid,
            start_vertex=int(starts[vid]),
            start_time=start_time,
            capacity=config.capacity,
            seed=int(rng.integers(0, 2**31)),
        )
        if config.algorithm == "kinetic":
            agent: VehicleAgent = KineticAgent(
                vehicle,
                engine,
                mode=config.tree_mode,
                hotspot_theta=config.hotspot_theta,
                eager_invalidation=config.eager_invalidation,
                start_time=start_time,
                expansion_budget=config.tree_expansion_budget,
                schedule_cap=config.tree_schedule_cap,
            )
        else:
            algorithm = make_algorithm(config.algorithm, engine)
            agent = RescheduleAgent(vehicle, engine, algorithm)
        agents.append(agent)
    return agents
