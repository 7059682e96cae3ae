"""Backtesting engines (paper §IV).

Three architectures, mirroring the paper's three approaches:

* **Approach 1** (:mod:`~repro.backtest.matrices`) — precompute the full
  correlation-matrix series, then pick out each pair's entry.  Simple, and
  memory-hungry in exactly the way the paper complains about.
* **Approach 2** (:mod:`~repro.backtest.runner`) — recompute each pair's
  correlation series independently and run the strategy per
  (pair, day, parameter set); the "Matlab" baseline, optionally distributed
  as independent jobs through the SGE simulator.
* **Approach 3** (:mod:`~repro.backtest.distributed`) — the integrated
  MarketMiner solution: one pass over the day's bars computes every pair's
  correlation series once (shared across parameter sets), with pairs
  distributed across MPI ranks and results gathered by the master.

All three run the same strategy job through the one cell loop
:func:`~repro.backtest.runner.run_cells` and differ only in where a cell's
correlation series comes from, so they produce identical
:class:`~repro.backtest.results.ResultStore` contents (a tested
invariant) at different time and memory cost.
:mod:`~repro.backtest.sweep` drives full pairs × days × parameters studies
through Approach 3.
"""

from repro.backtest.distributed import DistributedBacktester
from repro.backtest.matrices import MatrixSeriesBacktester
from repro.backtest.report import StudyReportOptions, study_report
from repro.backtest.results import ResultStore
from repro.backtest.runner import (
    CellFailure,
    SequentialBacktester,
    backtest_pair_day,
)
from repro.backtest.selection import (
    PairScore,
    ParameterScore,
    format_selection_report,
    rank_pairs,
    rank_parameter_sets,
)
from repro.backtest.sweep import SweepConfig, run_sweep
from repro.backtest.walkforward import (
    WalkForwardReport,
    WalkForwardStep,
    format_walk_forward,
    walk_forward,
)

__all__ = [
    "CellFailure",
    "DistributedBacktester",
    "MatrixSeriesBacktester",
    "PairScore",
    "ParameterScore",
    "ResultStore",
    "SequentialBacktester",
    "StudyReportOptions",
    "SweepConfig",
    "WalkForwardReport",
    "WalkForwardStep",
    "backtest_pair_day",
    "format_selection_report",
    "rank_pairs",
    "rank_parameter_sets",
    "run_sweep",
    "study_report",
    "format_walk_forward",
    "walk_forward",
]
