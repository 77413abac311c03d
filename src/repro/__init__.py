"""repro — reproduction of *Large Scale Real-time Ridesharing with
Service Guarantee on Road Networks* (Huang, Jin, Bastani & Wang, VLDB
2014; arXiv:1302.6666).

Quickstart::

    from repro import (
        grid_city, make_engine, ConstraintConfig,
        ShanghaiLikeWorkload, SimulationConfig, simulate,
    )

    city = grid_city(30, 30, seed=7)
    engine = make_engine(city)
    trips = ShanghaiLikeWorkload(city, seed=7).generate(
        num_trips=200, duration_seconds=3600)
    report = simulate(engine, SimulationConfig(num_vehicles=50), trips)
    print(report.summary())

Package map:

* :mod:`repro.roadnet` — road graphs, shortest-path engines, the row LRU,
  synthetic city generators;
* :mod:`repro.spatial` — grid index over moving vehicles;
* :mod:`repro.core` — requests, schedules, vehicles, the dispatcher and
  the **kinetic tree** (the paper's contribution);
* :mod:`repro.dispatch` — the **dispatch subsystem**: rolling-horizon
  request batching (:class:`BatchWindow`) and pluggable batch assignment
  policies behind :class:`DispatchPolicy` — ``greedy`` (the paper's
  sequential cheapest-quote; with ``batch_window_s=0`` it *is* immediate
  dispatch), ``lap`` (one optimal request x vehicle linear assignment per
  window via ``scipy.optimize.linear_sum_assignment``, after Simonetto
  et al.) and ``iterative`` (repeated assignment rounds re-quoting
  unassigned requests, after Vakayil et al.). Each flush quotes, solves
  and commits synchronously at its instant, in one process
  (:mod:`repro.dispatch.quoting`), every ``batch_window_s`` seconds,
  and carry-over batching lets losing requests roll into the next
  window. Configure through :class:`SimulationConfig`
  (``dispatch_policy``, ``batch_window_s``, ``assignment_rounds``,
  ``carry_over``);
* :mod:`repro.algorithms` — brute force, branch & bound, MIP and
  insertion baselines;
* :mod:`repro.sim` — event-driven simulator, synthetic Shanghai-like
  workloads, metrics (ACRT / ART / occupancy);
* :mod:`repro.bench` — the experiment harness regenerating every table
  and figure of the paper (experiment index: README, "Reproducing the
  paper's experiments").
"""

from repro.algorithms import (
    ALGORITHM_REGISTRY,
    BranchAndBound,
    BruteForce,
    KineticTreeAlgorithm,
    MixedIntegerProgramming,
    SchedulingAlgorithm,
    TwoPhaseInsertion,
    make_algorithm,
)
from repro.core import (
    AssignmentResult,
    ConstraintConfig,
    DEFAULT_CONSTRAINTS,
    Dispatcher,
    KineticAgent,
    KineticTree,
    KineticTrial,
    PAPER_CONSTRAINT_SWEEP,
    Quote,
    RescheduleAgent,
    ScheduleEvaluation,
    ScheduleResult,
    SchedulingProblem,
    Stop,
    StopKind,
    TreeNode,
    TripRequest,
    Vehicle,
    VehicleAgent,
    dropoff,
    evaluate_schedule,
    pickup,
)
from repro.dispatch import (
    BatchDispatcher,
    BatchResult,
    BatchWindow,
    DispatchPolicy,
    GreedyPolicy,
    IterativePolicy,
    LapPolicy,
    POLICY_REGISTRY,
    make_policy,
    solve_assignment,
)
from repro.roadnet import (
    DijkstraEngine,
    HubLabelEngine,
    HubLabels,
    LRUCache,
    MatrixEngine,
    RoadNetwork,
    ShortestPathEngine,
    grid_city,
    make_engine,
    random_geometric_city,
    ring_radial_city,
)
from repro.sim import (
    Simulation,
    SimulationConfig,
    SimulationReport,
    ShanghaiLikeWorkload,
    TripSpec,
    burst_workload,
    simulate,
)
from repro.spatial import GridIndex

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # roadnet
    "RoadNetwork",
    "ShortestPathEngine",
    "DijkstraEngine",
    "MatrixEngine",
    "HubLabelEngine",
    "HubLabels",
    "LRUCache",
    "make_engine",
    "grid_city",
    "ring_radial_city",
    "random_geometric_city",
    # spatial
    "GridIndex",
    # core
    "ConstraintConfig",
    "PAPER_CONSTRAINT_SWEEP",
    "DEFAULT_CONSTRAINTS",
    "TripRequest",
    "Stop",
    "StopKind",
    "pickup",
    "dropoff",
    "evaluate_schedule",
    "ScheduleEvaluation",
    "SchedulingProblem",
    "ScheduleResult",
    "Vehicle",
    "KineticTree",
    "KineticTrial",
    "TreeNode",
    "Dispatcher",
    "VehicleAgent",
    "KineticAgent",
    "RescheduleAgent",
    "Quote",
    "AssignmentResult",
    # dispatch
    "BatchDispatcher",
    "BatchResult",
    "BatchWindow",
    "DispatchPolicy",
    "GreedyPolicy",
    "IterativePolicy",
    "LapPolicy",
    "POLICY_REGISTRY",
    "make_policy",
    "solve_assignment",
    # algorithms
    "SchedulingAlgorithm",
    "BruteForce",
    "BranchAndBound",
    "MixedIntegerProgramming",
    "TwoPhaseInsertion",
    "KineticTreeAlgorithm",
    "ALGORITHM_REGISTRY",
    "make_algorithm",
    # sim
    "Simulation",
    "simulate",
    "SimulationConfig",
    "SimulationReport",
    "ShanghaiLikeWorkload",
    "TripSpec",
    "burst_workload",
]
