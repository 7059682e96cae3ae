"""The day-block scan against the frozen per-interval loop.

``DayBlock.scan`` (and so ``run_pair_day`` and ``run_cells``) checks the
day once, jumps from signal to signal and reduces the ``RT`` window only
at entries; ``tests/oracle.py::frozen_run_pair_day`` is the loop it
replaced.  Trades are compared through ``repr``, which round-trips every
float and tells ``-0.0`` from ``0.0``, so equality here is bitwise.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backtest.data import BarProvider
from repro.backtest.results import ResultStore
from repro.backtest.runner import (
    SequentialBacktester,
    _own_corr,
    run_cells,
    shared_corr_for,
)
from repro.corr.batch import BatchWorkspace, corr_series
from repro.obs import Obs
from repro.strategy.costs import ExecutionModel, execution_salt
from repro.strategy.engine import (
    DayBlock,
    TradeReason,
    align_corr_series,
    run_pair_day,
)
from repro.strategy.params import StrategyParams, paper_parameter_grid
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid
from tests.oracle import frozen_run_pair_day
from tests.test_backtest_engines import _hostile_provider, _study_parts

#: The extension rules and the fill lottery each take a branch the plain
#: paper grid never does.
VARIANTS = {
    "plain": ({}, None),
    "stop-loss+reversion": (
        {"stop_loss": 0.002, "correlation_reversion": True}, None
    ),
    "costs+fills": (
        {},
        ExecutionModel(
            commission_per_share=0.005, slippage_frac=2e-4,
            impact_coeff=1e-4, fill_probability=0.7, seed=5,
        ),
    ),
}


def _variant(grid, name):
    extensions, execution = VARIANTS[name]
    return [replace(p, **extensions) for p in grid], execution


def _frozen(prices, corr, params, execution, salt):
    """The frozen loop's trades, or the ``(type, message)`` it raised."""
    try:
        return frozen_run_pair_day(prices, corr, params, execution, salt)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def full_day():
    """One full synthetic session of six symbols and its shared series."""
    market = SyntheticMarket(
        default_universe(6), SyntheticMarketConfig(trading_seconds=23_400),
        seed=7,
    )
    provider = BarProvider(market, TimeGrid(30, trading_seconds=23_400))
    prices = provider.prices(0)
    pairs = list(market.universe.pairs())
    grid = paper_parameter_grid()
    corr_for = shared_corr_for(
        provider.returns(0), prices.shape[0], pairs, grid, None, Obs(),
        BatchWorkspace(),
    )
    return prices, pairs, grid, corr_for


class TestMatchesFrozenLoop:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_paper_grid_full_day(self, full_day, variant):
        """All 42 Table-I sets on 15 pairs of a full day: ``run_pair_day``
        trade for trade, ``run_cells`` return for return."""
        prices, pairs, base_grid, corr_for = full_day
        grid, execution = _variant(base_grid, variant)
        store = ResultStore()
        run_cells(store, prices, 0, pairs, grid, corr_for, Obs(), execution)
        reasons = Counter()
        for i, j in pairs:
            pair_prices = prices[:, [i, j]]
            for k, params in enumerate(grid):
                corr = corr_for(i, j, params)
                salt = execution_salt((i, j), k)
                expect = frozen_run_pair_day(
                    pair_prices, corr, params, execution, salt
                )
                got = run_pair_day(
                    pair_prices, corr, params, execution=execution, salt=salt
                )
                assert repr(got) == repr(expect)
                assert repr(store.cell((i, j), k, 0).tolist()) == repr(
                    [float(t.ret) for t in expect]
                )
                reasons.update(t.reason for t in expect)
        assert reasons[TradeReason.RETRACEMENT] > 0
        assert reasons[TradeReason.MAX_HOLDING] > 0
        if variant == "stop-loss+reversion":
            assert reasons[TradeReason.STOP_LOSS] > 0
            assert reasons[TradeReason.CORR_REVERSION] > 0

    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10_000))
    def test_random_walks(self, variant, seed):
        params, execution = _variant(
            [StrategyParams(m=10, w=5, y=3, rt=8, hp=6, st=4, d=0.01)],
            variant,
        )
        params = params[0]
        gen = np.random.default_rng(seed)
        smax = 120
        common = gen.normal(0, 0.004, size=smax - 1)
        legs = [
            start * np.exp(np.cumsum(common + gen.normal(0, 0.002, smax - 1)))
            for start in (40.0, 60.0)
        ]
        prices = np.column_stack(
            [np.concatenate([[40.0], legs[0]]), np.concatenate([[60.0], legs[1]])]
        )
        r = np.diff(np.log(prices), axis=0)
        corr = align_corr_series(
            corr_series(r[:, 0], r[:, 1], params.m, "pearson"), smax, params.m
        )
        expect = frozen_run_pair_day(prices, corr, params, execution, seed)
        got = run_pair_day(prices, corr, params, execution=execution, salt=seed)
        assert repr(got) == repr(expect)

    @pytest.mark.parametrize("variant", ["plain", "costs+fills"])
    @pytest.mark.parametrize("mode", ["late-start", "halt", "never-moves"])
    def test_hostile_tradeable_days(self, mode, variant):
        """The tradeable damaged days of ``TestHostileDays``, through an
        engine (fill lottery included), against the frozen loop fed each
        job's own series."""
        provider, pairs, base_grid, days = _study_parts(_hostile_provider(mode))
        grid, execution = _variant(base_grid, variant)
        store = SequentialBacktester(provider, execution=execution).run(
            pairs, grid, days
        )
        expect = ResultStore()
        for day in days:
            prices = provider.prices(day)
            for i, j in pairs:
                pair_prices = prices[:, [i, j]]
                for k, params in enumerate(grid):
                    trades = frozen_run_pair_day(
                        pair_prices, _own_corr(pair_prices, params, None),
                        params, execution, execution_salt((i, j), k),
                    )
                    expect.add((i, j), k, day, [t.ret for t in trades])
        assert store == expect
        assert store.n_trades > 0


class TestDayCheckedOnce:
    """One bad symbol fails its own cells, with the message the frozen
    loop gives, and no other cell moves."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_symbol_fails_only_its_cells(self, full_day, bad):
        clean, pairs, grid, corr_for = full_day
        grid = grid[::7]
        victim = 2
        prices = clean.copy()
        prices[300, victim] = bad
        failures = []
        store = ResultStore()
        run_cells(store, prices, 0, pairs, grid, corr_for, Obs(), None, failures)
        assert sorted((f.pair, f.param_index) for f in failures) == [
            ((i, j), k)
            for i, j in pairs
            if victim in (i, j)
            for k in range(len(grid))
        ]
        for failure in failures:
            i, j = failure.pair
            params = grid[failure.param_index]
            expect = _frozen(
                prices[:, [i, j]], corr_for(i, j, params), params, None, 0
            )
            assert (failure.exc_type, failure.message) == expect
            assert expect == ("ValueError", "prices must be positive and finite")
        for i, j in pairs:
            if victim in (i, j):
                continue
            for k, params in enumerate(grid):
                expect = frozen_run_pair_day(
                    prices[:, [i, j]], corr_for(i, j, params), params
                )
                assert repr(store.cell((i, j), k, 0).tolist()) == repr(
                    [float(t.ret) for t in expect]
                )
        with pytest.raises(ValueError, match="^prices must be positive and finite$"):
            run_cells(ResultStore(), prices, 0, pairs, grid, corr_for, Obs())

    def test_no_room_before_the_close_is_empty(self):
        """``smax - ST <= first_active_interval``: no interval may open a
        position, even with a signal at the first active interval."""
        params = StrategyParams(m=10, w=5, y=3, rt=8, hp=6, st=4, d=0.01)
        start = params.first_active_interval
        for smax, opens in ((start + params.st, False), (start + params.st + 1, True)):
            gen = np.random.default_rng(smax)
            prices = 50.0 + gen.random((smax, 2))
            corr = np.full(smax, np.nan)
            corr[params.m :] = 0.9
            corr[start] = 0.5
            expect = frozen_run_pair_day(prices, corr, params)
            got = DayBlock(prices, [(0, 1)]).scan(0, corr, params)
            assert repr(got) == repr(expect)
            assert (len(got) == 1 and got[0].entry_s == start) == opens
            assert run_pair_day(prices, corr, params) == got
