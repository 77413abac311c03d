"""Event-driven simulation framework (Section VI of the paper)."""

from repro.sim.config import SimulationConfig
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.fleet import build_fleet
from repro.sim.metrics import OccupancyTracker, SimulationReport
from repro.sim.simulator import Simulation, simulate
from repro.sim.workload import (
    PAPER_TRIPS_PER_VEHICLE_HOUR,
    ShanghaiLikeWorkload,
    TripSpec,
    burst_workload,
)

__all__ = [
    "SimulationConfig",
    "Event",
    "EventKind",
    "EventQueue",
    "build_fleet",
    "Simulation",
    "simulate",
    "SimulationReport",
    "OccupancyTracker",
    "ShanghaiLikeWorkload",
    "TripSpec",
    "burst_workload",
    "PAPER_TRIPS_PER_VEHICLE_HOUR",
]
