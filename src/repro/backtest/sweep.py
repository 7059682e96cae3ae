"""Full experiment sweeps: pairs × parameter sets × days.

:func:`run_sweep` is the one-call driver behind the Tables III–V and
Figure-2 reproductions: build the synthetic month, run every pair and
parameter set through the integrated Approach-3 engine, and return the
:class:`~repro.backtest.results.ResultStore` plus the grid needed to
summarise it.  Defaults are scaled to a single core; every knob scales to
the paper's 61 stocks × 20 days × 42 sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backtest.data import BarProvider
from repro.backtest.distributed import DistributedBacktester
from repro.backtest.results import ResultStore
from repro.corr.maronna import MaronnaConfig
from repro.mpi.launcher import run_spmd
from repro.obs import Obs, attach_to_comm
from repro.strategy.costs import ExecutionModel
from repro.strategy.params import StrategyParams, paper_parameter_grid
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import Universe, default_universe
from repro.util.timeutil import TimeGrid
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class SweepConfig:
    """One study's shape.

    The default base parameter set is shortened relative to the paper's
    canonical vector so a scaled-down session still has room to trade
    (windows must fit inside ``smax``); pass an explicit ``grid`` to
    override entirely.
    """

    n_symbols: int = 10
    n_days: int = 3
    delta_s: int = 30
    trading_seconds: int = 23_400 // 2
    seed: int = 2008
    n_levels: int | None = None
    base_params: StrategyParams = field(
        default_factory=lambda: StrategyParams(
            m=60, w=30, y=8, rt=30, hp=20, st=10, d=0.001
        )
    )
    grid: tuple[StrategyParams, ...] | None = None
    market_config: SyntheticMarketConfig | None = None
    ranks: int = 2
    backend: str = "thread"
    clean: bool = True
    #: Optional implementation-shortfall model applied to every trade.
    execution: ExecutionModel | None = None
    #: "abort" fails the sweep on the first bad cell (historical
    #: behaviour); "continue" skips it and records a failure manifest.
    on_error: str = "abort"

    def __post_init__(self) -> None:
        if self.on_error not in ("abort", "continue"):
            raise ValueError(
                f"on_error must be 'abort' or 'continue', got {self.on_error!r}"
            )
        check_positive_int(self.n_symbols, "n_symbols")
        if self.n_symbols < 2:
            raise ValueError("need at least 2 symbols to form a pair")
        check_positive_int(self.n_days, "n_days")
        check_positive_int(self.delta_s, "delta_s")
        check_positive_int(self.ranks, "ranks")

    def build_grid(self) -> list[StrategyParams]:
        """The parameter sets of this sweep."""
        if self.grid is not None:
            return list(self.grid)
        return paper_parameter_grid(base=self.base_params, n_levels=self.n_levels)

    def build_universe(self) -> Universe:
        """Universe of the first ``n_symbols`` paper tickers."""
        return default_universe(self.n_symbols)

    def build_market(self) -> SyntheticMarket:
        """Synthetic market for the configured universe/session/seed."""
        cfg = self.market_config
        if cfg is None:
            cfg = SyntheticMarketConfig(trading_seconds=self.trading_seconds)
        elif cfg.trading_seconds != self.trading_seconds:
            raise ValueError(
                "market_config.trading_seconds must match SweepConfig.trading_seconds"
            )
        return SyntheticMarket(self.build_universe(), cfg, seed=self.seed)

    def build_provider(self) -> BarProvider:
        """Bar provider over :meth:`build_market` on the configured grid."""
        grid = TimeGrid(self.delta_s, trading_seconds=self.trading_seconds)
        return BarProvider(self.build_market(), grid, clean=self.clean)


def run_sweep(
    config: SweepConfig,
    maronna_config: MaronnaConfig | None = None,
    obs: Obs | None = None,
    failures: list | None = None,
) -> tuple[ResultStore, list[StrategyParams]]:
    """Execute a sweep; returns the result store and its parameter grid.

    The store covers all ``n(n-1)/2`` pairs of the universe, every grid
    entry and days ``0 .. n_days-1``, computed by
    :class:`~repro.backtest.distributed.DistributedBacktester` on
    ``config.ranks`` ranks (one rank is the single-process run).  With an
    enabled ``obs``, each rank records into its own registry and the
    per-rank interchange dicts are absorbed into ``obs`` afterwards.

    With ``config.on_error == "continue"``, failed cells do not abort the
    sweep; pass a list as ``failures`` to collect the resulting
    :class:`~repro.backtest.runner.CellFailure` manifest (sorted by
    (day, pair, parameter index)).
    """
    provider = config.build_provider()
    grid = config.build_grid()
    pairs = list(config.build_universe().pairs())
    days = list(range(config.n_days))
    record = obs is not None and obs.enabled

    def spmd(comm):
        local = None
        if record:
            local = Obs(enabled=True)
            attach_to_comm(comm, local)
        backtester = DistributedBacktester(
            provider, maronna_config, execution=config.execution
        )
        store = backtester.run(
            comm, pairs, grid, days, obs=local, on_error=config.on_error
        )
        return (
            store,
            local.to_dict() if local is not None else None,
            backtester.last_failures,
        )

    results = run_spmd(spmd, size=config.ranks, backend=config.backend)
    if record:
        for rank, (_, rank_dict, _) in enumerate(results):
            if rank_dict is not None:
                obs.absorb_rank(rank, rank_dict)
    if failures is not None:
        failures.extend(results[0][2])
    return results[0][0], grid
