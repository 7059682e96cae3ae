"""Quickstart: backtest one pair over one synthetic trading day.

Walks the paper's pipeline end to end, in miniature:

1. synthesise a day of quotes for a small universe,
2. clean them, accumulate BAM bars, compute log-returns,
3. compute the pair's sliding-window correlation,
4. run the canonical pair trading strategy (paper §III),
5. print the trades and the day's performance metrics.

Run:  python examples/quickstart.py
"""

from repro.backtest.data import BarProvider
from repro.corr.batch import corr_series
from repro.metrics.drawdown import max_drawdown
from repro.metrics.returns import cumulative_return
from repro.metrics.winloss import win_loss_ratio
from repro.strategy.engine import align_corr_series, run_pair_day
from repro.strategy.params import StrategyParams
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid


def main() -> None:
    # A 10-stock universe: interleaved sectors, so same-sector (and hence
    # genuinely correlated) pairs exist. XOM/CVX is the paper's classic.
    universe = default_universe(10)
    config = SyntheticMarketConfig(trading_seconds=23_400 // 2)
    market = SyntheticMarket(universe, config, seed=42)
    grid = TimeGrid(delta_s=30, trading_seconds=config.trading_seconds)

    provider = BarProvider(market, grid, clean=True)
    prices = provider.prices(day=0)
    returns = provider.returns(day=0)

    i, j = universe.index_of("XOM"), universe.index_of("CVX")
    print(f"Universe: {', '.join(universe.symbols)}")
    print(f"Pair: {universe.symbols[i]}/{universe.symbols[j]} "
          f"(sector: {universe.sectors[i]}), {grid.smax} bars of {grid.delta_s}s")

    # Strategy parameters, scaled to the half-day session (in Δs units).
    params = StrategyParams(
        ctype="maronna", m=60, w=30, y=8, rt=30, hp=20, st=10, d=0.001
    )
    series = corr_series(returns[:, i], returns[:, j], params.m, params.ctype)
    corr = align_corr_series(series, grid.smax, params.m)
    print(f"Correlation over the day: min={series.min():.3f} "
          f"max={series.max():.3f}")

    trades = run_pair_day(prices[:, [i, j]], corr, params)
    print(f"\n{len(trades)} trades:")
    for t in trades:
        legs = (universe.symbols[i], universe.symbols[j])
        print(
            f"  s={t.entry_s:3d} -> {t.exit_s:3d}  long {legs[t.long_leg]:<5} "
            f"{t.n_long}:{t.n_short}  return {t.ret:+.4%}  ({t.reason.value})"
        )

    rets = [t.ret for t in trades]
    print(f"\nDay summary: cumulative return {cumulative_return(rets):+.4%}, "
          f"max drawdown {max_drawdown(rets):.4%}, "
          f"win/loss {win_loss_ratio(rets):.2f}")


if __name__ == "__main__":
    main()
