"""Experiment harness regenerating every table and figure of the paper.

Each experiment id (``fig6a`` ... ``fig9c``, ``table1``, ``table2``,
``occupancy``, ``micro_engine``, ``ablation_*``, ``dispatch_policies``)
maps to a function in :mod:`repro.bench.experiments` returning an
:class:`~repro.bench.harness.ExperimentTable`. Problem sizes are scaled
down from the paper's Shanghai deployment (see the suite definitions in
:mod:`repro.bench.harness`) and multiply back up via the ``REPRO_SCALE``
environment variable.

Run everything from the command line::

    python -m repro.bench            # all experiments
    python -m repro.bench fig6b      # one experiment

Timings are recorded and compared in one place, the end-to-end ledger
(``BENCHMARK.json`` + ``benchmarks/e2e/run.py``); this package only
reproduces the paper's artifacts.
"""

from repro.bench.harness import (
    BURST_SUITE,
    BenchContext,
    ExperimentTable,
    FOUR_SUITE,
    TREE_SUITE,
    SuiteSpec,
    get_context,
    repro_scale,
)
from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment

__all__ = [
    "BenchContext",
    "ExperimentTable",
    "SuiteSpec",
    "FOUR_SUITE",
    "TREE_SUITE",
    "BURST_SUITE",
    "get_context",
    "repro_scale",
    "ALL_EXPERIMENTS",
    "run_experiment",
]
