"""The canonical pair trading strategy (paper §III).

A statistical pair trade watches the short-window correlation of a pair;
when a fresh breakdown (divergence) is detected against the recent average
correlation, it goes long the under-performer and short the over-performer
in cash-neutral-slightly-long size, then unwinds at a spread retracement
level, a maximum holding period, or the end of the day.

Submodules: parameters and the Table-I grid (:mod:`~repro.strategy.params`),
divergence signal computation (:mod:`~repro.strategy.signals`), position
sizing (:mod:`~repro.strategy.positions`), retracement levels
(:mod:`~repro.strategy.retracement`), the day-block scan and the streaming
cell bank (:mod:`~repro.strategy.engine`) and basket/risk aggregation
(:mod:`~repro.strategy.portfolio`).
"""

from repro.strategy.costs import ExecutionModel, execution_salt
from repro.strategy.execution_algo import (
    ChildOrder,
    ExecutionReport,
    ListExecutionPlan,
    ListExecutionScheduler,
    simulate_fills,
)
from repro.strategy.engine import (
    CellBank,
    DayBlock,
    Trade,
    TradeReason,
    align_corr_series,
    run_pair_day,
)
from repro.strategy.params import (
    StrategyParams,
    format_table1,
    paper_parameter_grid,
    small_parameter_grid,
    table1_values,
)
from repro.strategy.portfolio import BasketAggregator, OrderRequest, RiskLimits
from repro.strategy.positions import (
    PairPosition,
    cash_neutral_shares,
    position_return,
)
from repro.strategy.retracement import RetracementLevel, retracement_level
from repro.strategy.signals import average_correlation, divergence_signals

__all__ = [
    "BasketAggregator",
    "CellBank",
    "ChildOrder",
    "DayBlock",
    "ExecutionModel",
    "ExecutionReport",
    "ListExecutionPlan",
    "ListExecutionScheduler",
    "OrderRequest",
    "PairPosition",
    "RetracementLevel",
    "RiskLimits",
    "StrategyParams",
    "Trade",
    "TradeReason",
    "average_correlation",
    "cash_neutral_shares",
    "divergence_signals",
    "execution_salt",
    "format_table1",
    "paper_parameter_grid",
    "position_return",
    "retracement_level",
    "run_pair_day",
    "simulate_fills",
    "small_parameter_grid",
    "table1_values",
]
