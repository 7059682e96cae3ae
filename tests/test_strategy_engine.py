"""Tests for the pair trading state machine (batch + streaming)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corr.batch import corr_series
from repro.strategy.engine import (
    Trade,
    TradeReason,
    align_corr_series,
    run_pair_day,
)
from repro.strategy.params import StrategyParams
from tests.oracle import PairStrategy

# Small windows so scenarios stay readable: active from s = 14.
PARAMS = StrategyParams(m=10, w=5, y=3, rt=8, hp=6, st=4, d=0.01, a=0.1)
SMAX = 60


def flat_scenario():
    """Flat prices, high flat correlation: no trades ever."""
    prices = np.column_stack([np.full(SMAX, 50.0), np.full(SMAX, 30.0)])
    corr = np.full(SMAX, np.nan)
    corr[PARAMS.m :] = 0.9
    return prices, corr


def diverging_scenario(drop_at=25, recover=True):
    """Correlation breakdown at `drop_at`; leg 1 underperforms then recovers."""
    prices, corr = flat_scenario()
    corr[drop_at:] = 0.5
    if recover:
        corr[drop_at + 2 :] = 0.9
    # Leg 1 dips (underperforms) from drop_at, recovers a few intervals later.
    prices[drop_at : drop_at + 2, 1] = 29.0
    return prices, corr


class TestNoTradeConditions:
    def test_flat_market_no_trades(self):
        prices, corr = flat_scenario()
        assert run_pair_day(prices, corr, PARAMS) == []

    def test_divergence_below_a_threshold(self):
        prices, corr = flat_scenario()
        corr[PARAMS.m :] = 0.05  # tradeable requires c_bar > A = 0.1
        corr[25] = 0.01
        assert run_pair_day(prices, corr, PARAMS) == []

    def test_divergence_too_close_to_eod(self):
        prices, corr = flat_scenario()
        drop = SMAX - PARAMS.st  # fewer than ST intervals remain
        corr[drop] = 0.5
        assert run_pair_day(prices, corr, PARAMS) == []

    def test_empty_when_strategy_never_activates(self):
        # Window requirements exceed the session length.
        long_params = StrategyParams(m=100, w=60, y=3, rt=8, hp=6, st=4)
        prices, corr = flat_scenario()
        assert run_pair_day(prices, corr, long_params) == []


class TestEntry:
    def test_divergence_opens_position(self):
        prices, corr = diverging_scenario()
        trades = run_pair_day(prices, corr, PARAMS)
        assert len(trades) >= 1
        assert trades[0].entry_s == 25

    def test_long_leg_is_underperformer(self):
        prices, corr = diverging_scenario()
        trades = run_pair_day(prices, corr, PARAMS)
        assert trades[0].long_leg == 1  # leg 1 dipped

    def test_long_leg_flips_with_dip(self):
        prices, corr = flat_scenario()
        corr[25] = 0.5
        prices[25:27, 0] = 49.0  # leg 0 underperforms instead
        trades = run_pair_day(prices, corr, PARAMS)
        assert trades and trades[0].long_leg == 0

    def test_share_ratio_cash_neutral(self):
        prices, corr = diverging_scenario()
        trade = run_pair_day(prices, corr, PARAMS)[0]
        # Long leg 1 at ~29-30, short leg 0 at 50.
        assert trade.n_short == 1
        assert trade.n_long == 2  # ceil(50/29) or ceil(50/30)

    def test_no_overlapping_positions(self):
        prices, corr = diverging_scenario()
        trades = run_pair_day(prices, corr, PARAMS)
        for prev, nxt in zip(trades, trades[1:]):
            assert nxt.entry_s > prev.exit_s


class TestExit:
    def test_max_holding_period(self):
        prices, corr = diverging_scenario()
        # Prevent retracement: freeze the spread after entry by moving both
        # legs identically (spread constant at entry level).
        prices[27:, 1] = 29.0
        prices[25:27, 1] = 29.0
        trades = run_pair_day(prices, corr, PARAMS)
        hp_trades = [t for t in trades if t.reason is TradeReason.MAX_HOLDING]
        assert hp_trades
        assert hp_trades[0].holding_periods == PARAMS.hp

    def test_end_of_day_close(self):
        prices, corr = flat_scenario()
        drop = SMAX - PARAMS.st - 1  # last permissible entry
        corr[drop] = 0.5
        prices[drop:, 1] = 29.0  # spread pinned: no retracement
        params = StrategyParams(m=10, w=5, y=3, rt=8, hp=50, st=4, d=0.01, a=0.1)
        trades = run_pair_day(prices, corr, params)
        assert trades
        assert trades[-1].reason is TradeReason.END_OF_DAY
        assert trades[-1].exit_s == SMAX - 1

    def test_retracement_exit_profits(self):
        prices, corr = diverging_scenario()
        trades = run_pair_day(prices, corr, PARAMS)
        retr = [t for t in trades if t.reason is TradeReason.RETRACEMENT]
        assert retr
        # Long the dipped leg which recovers: profitable round trip.
        assert retr[0].ret > 0

    def test_all_positions_closed_by_eod(self):
        prices, corr = diverging_scenario()
        trades = run_pair_day(prices, corr, PARAMS)
        assert all(t.exit_s <= SMAX - 1 for t in trades)
        assert all(t.exit_s > t.entry_s or t.reason is TradeReason.END_OF_DAY
                   for t in trades)


class TestExtensions:
    def test_stop_loss_triggers(self):
        params = StrategyParams(
            m=10, w=5, y=3, rt=8, hp=40, st=4, d=0.01, a=0.1, stop_loss=0.005
        )
        prices, corr = flat_scenario()
        corr[25] = 0.5
        prices[25, 1] = 29.5
        # After entry the long leg collapses: deep loss, no retracement up.
        prices[26:, 1] = 26.0
        trades = run_pair_day(prices, corr, params)
        assert trades
        assert trades[0].reason in (TradeReason.STOP_LOSS, TradeReason.RETRACEMENT)
        stop = [t for t in trades if t.reason is TradeReason.STOP_LOSS]
        assert stop, [t.reason for t in trades]
        assert stop[0].ret < 0

    def test_correlation_reversion_exit(self):
        params = StrategyParams(
            m=10, w=5, y=3, rt=8, hp=40, st=4, d=0.01, a=0.1,
            correlation_reversion=True,
        )
        prices, corr = flat_scenario()
        corr[25] = 0.5  # diverge
        prices[25:, 1] = 29.0  # pin spread away from retracement
        corr[26:] = 0.88  # back inside [c_bar(1-d), c_bar)
        trades = run_pair_day(prices, corr, params)
        assert trades
        assert trades[0].reason is TradeReason.CORR_REVERSION

    def test_extensions_off_reproduce_canonical(self):
        prices, corr = diverging_scenario()
        base = run_pair_day(prices, corr, PARAMS)
        with_off = run_pair_day(
            prices,
            corr,
            StrategyParams(
                m=10, w=5, y=3, rt=8, hp=6, st=4, d=0.01, a=0.1,
                stop_loss=None, correlation_reversion=False,
            ),
        )
        assert base == with_off


class TestValidation:
    def test_rejects_bad_price_shape(self):
        with pytest.raises(ValueError):
            run_pair_day(np.ones((10, 3)), np.ones(10), PARAMS)

    def test_rejects_corr_length_mismatch(self):
        with pytest.raises(ValueError):
            run_pair_day(np.ones((10, 2)), np.ones(9), PARAMS)

    def test_rejects_nonpositive_prices(self):
        prices = np.ones((20, 2))
        prices[3, 0] = 0.0
        with pytest.raises(ValueError):
            run_pair_day(prices, np.ones(20), PARAMS)


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_both_forms_refuse_the_same_prices(self, bad):
        """One rule, one message: what the batch function will not trade
        on, the streaming form will not store."""
        nan = float("nan")
        prices = np.ones((20, 2))
        prices[3, 1] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            run_pair_day(prices, np.ones(20), PARAMS)
        for leg in (0, 1):
            row = [1.0, 1.0]
            row[leg] = bad
            strat = PairStrategy(PARAMS, 20)
            for s in range(3):
                strat.step(s, 1.0, 1.0, nan)
            with pytest.raises(ValueError, match="positive and finite"):
                strat.step(3, *row, nan)
            with pytest.raises(ValueError, match="positive and finite"):
                strat.flatten(3, *row)
            strat.step(3, 1.0, 1.0, nan)  # a refused interval is not recorded

    def test_all_nan_correlation_opens_nothing(self):
        """The hostile day: a correlation series that is NaN from ``M`` to
        the close (every window stale or degenerate) reaches the strategy.
        Neither form enters, neither raises."""
        prices, _ = diverging_scenario()
        corr = np.full(SMAX, np.nan)
        assert run_pair_day(prices, corr, PARAMS) == []
        strat = PairStrategy(PARAMS, SMAX)
        for s in range(SMAX):
            assert strat.step(s, prices[s, 0], prices[s, 1], corr[s]) is None
            assert strat.open_position is None
        assert strat.trades == []


class TestAlignCorrSeries:
    def test_alignment(self):
        series = np.arange(5, dtype=float)
        out = align_corr_series(series, smax=15, m=10)
        assert out.shape == (15,)
        assert np.isnan(out[:10]).all()
        np.testing.assert_array_equal(out[10:], series)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            align_corr_series(np.ones(4), smax=15, m=10)


class TestStreamingEquivalence:
    def _stream(self, prices, corr, params):
        strat = PairStrategy(params, prices.shape[0])
        out = []
        for s in range(prices.shape[0]):
            trade = strat.step(s, prices[s, 0], prices[s, 1], corr[s])
            if trade is not None:
                out.append(trade)
        return out

    def test_scenarios(self):
        for scenario in (flat_scenario, diverging_scenario):
            prices, corr = scenario()
            assert self._stream(prices, corr, PARAMS) == run_pair_day(
                prices, corr, PARAMS
            )

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_random_walks(self, seed):
        gen = np.random.default_rng(seed)
        smax = 80
        common = gen.normal(0, 0.004, size=smax - 1)
        p0 = 40 * np.exp(np.cumsum(common + gen.normal(0, 0.002, smax - 1)))
        p1 = 60 * np.exp(np.cumsum(common + gen.normal(0, 0.002, smax - 1)))
        prices = np.column_stack([np.concatenate([[40], p0]),
                                  np.concatenate([[60], p1])])
        r = np.diff(np.log(prices), axis=0)
        series = corr_series(r[:, 0], r[:, 1], PARAMS.m, "pearson")
        corr = align_corr_series(series, smax, PARAMS.m)
        batch = run_pair_day(prices, corr, PARAMS)
        assert self._stream(prices, corr, PARAMS) == batch

    def test_step_enforces_sequence(self):
        strat = PairStrategy(PARAMS, 20)
        strat.step(0, 1.0, 1.0, float("nan"))
        with pytest.raises(ValueError, match="expected interval"):
            strat.step(2, 1.0, 1.0, float("nan"))

    def test_step_rejects_nonpositive_price(self):
        strat = PairStrategy(PARAMS, 20)
        with pytest.raises(ValueError):
            strat.step(0, 0.0, 1.0, float("nan"))


class TestTradeRecord:
    def test_holding_periods(self):
        t = Trade(
            entry_s=5, exit_s=9, ret=0.01, reason=TradeReason.RETRACEMENT,
            long_leg=0, n_long=1, n_short=1,
        )
        assert t.holding_periods == 4
