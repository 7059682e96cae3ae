"""Property tests of strategy invariants over random market scenarios.

Whatever the market does, the canonical strategy must respect its own
contract: positions never exceed the holding period, never straddle the
close, never overlap; entries respect ST; exit reasons are consistent
with the spread path; returns are bounded by the legs' gross moves.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corr.batch import corr_series
from repro.strategy.engine import TradeReason, align_corr_series, run_pair_day
from repro.strategy.params import StrategyParams

PARAMS = StrategyParams(m=12, w=6, y=3, rt=8, hp=7, st=4, d=0.005, a=0.05)
SMAX = 70


def random_market(seed: int):
    """A correlated random-walk pair with occasional idiosyncratic kicks."""
    gen = np.random.default_rng(seed)
    common = gen.normal(0, 0.004, size=SMAX - 1)
    kick = np.zeros(SMAX - 1)
    n_kicks = gen.integers(0, 4)
    for _ in range(n_kicks):
        at = gen.integers(0, SMAX - 1)
        kick[at] += gen.normal(0, 0.01)
    r0 = common + gen.normal(0, 0.002, SMAX - 1)
    r1 = common + gen.normal(0, 0.002, SMAX - 1) + kick
    p0 = 40 * np.exp(np.concatenate([[0], np.cumsum(r0)]))
    p1 = 60 * np.exp(np.concatenate([[0], np.cumsum(r1)]))
    prices = np.column_stack([p0, p1])
    returns = np.diff(np.log(prices), axis=0)
    series = corr_series(returns[:, 0], returns[:, 1], PARAMS.m, "pearson")
    return prices, align_corr_series(series, SMAX, PARAMS.m)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 100_000))
def test_trade_contract(seed):
    prices, corr = random_market(seed)
    trades = run_pair_day(prices, corr, PARAMS)

    for trade in trades:
        # Timing contract.
        assert PARAMS.first_active_interval <= trade.entry_s < SMAX
        assert trade.entry_s < trade.exit_s <= SMAX - 1
        assert trade.holding_periods <= PARAMS.hp
        # ST: entries leave at least ST intervals to the close.
        assert (SMAX - 1 - trade.entry_s) >= PARAMS.st
        # Sizing contract: cash-neutral slightly long.
        long_price = prices[trade.entry_s, trade.long_leg]
        short_price = prices[trade.entry_s, 1 - trade.long_leg]
        assert trade.n_long * long_price >= trade.n_short * short_price - 1e-9
        # Return bounded by the legs' gross moves over the holding window.
        window = prices[trade.entry_s : trade.exit_s + 1]
        gross_move = (
            np.abs(np.log(window[-1] / window[0])).sum()
        )
        assert abs(trade.ret) <= 2.5 * gross_move + 1e-9
        # HP exits take exactly HP periods; EOD exits end at the close.
        if trade.reason is TradeReason.MAX_HOLDING:
            assert trade.holding_periods == PARAMS.hp
        if trade.reason is TradeReason.END_OF_DAY:
            assert trade.exit_s == SMAX - 1

    # No overlapping positions.
    for prev, nxt in zip(trades, trades[1:]):
        assert nxt.entry_s > prev.exit_s


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 100_000))
def test_determinism(seed):
    prices, corr = random_market(seed)
    assert run_pair_day(prices, corr, PARAMS) == run_pair_day(
        prices, corr, PARAMS
    )


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 100_000))
def test_price_scale_invariance_of_timing(seed):
    """Scaling both legs by a common factor preserves trade timing.

    Returns and share counts may differ (integer ratios), but entries,
    exits and reasons depend only on relative moves.
    """
    prices, corr = random_market(seed)
    base = run_pair_day(prices, corr, PARAMS)
    scaled = run_pair_day(prices * 3.0, corr, PARAMS)
    assert [(t.entry_s, t.exit_s, t.reason) for t in base] == [
        (t.entry_s, t.exit_s, t.reason) for t in scaled
    ]
