"""CellBank, the pipeline's streaming strategy, against the frozen definitions.

The bank steps every (pair, parameter set) cell of an interval at once on
the batch engine's definitions, so its trades must equal
``frozen_run_pair_day`` and the frozen per-cell ``PairStrategy`` trade for
trade, bit for bit — on the single-cell scenarios and random walks of
``TestStreamingEquivalence``, on a multi-cell day under the paper's 11
Pearson M=100 sets, and through stale (degraded) intervals.  The pipeline
component built on it must emit the same (port, payload) sequence as the
per-cell loop it replaced.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corr.batch import corr_series
from repro.corr.measures import CorrelationType
from repro.faults.policy import DegradePolicy, StaleCorr
from repro.marketminer.component import Context
from repro.marketminer.components.strategy import PairTradingComponent
from repro.strategy.engine import CellBank, TradeReason, align_corr_series
from repro.strategy.params import paper_parameter_grid
from tests.oracle import PairStrategy, PerCellStepLoop, frozen_run_pair_day
from tests.test_strategy_engine import PARAMS, diverging_scenario, flat_scenario

NAN = float("nan")

#: The paper's Pearson sets at M = 100: 11 levels, W = 60 and 120.
PEARSON_M100 = [
    p for p in paper_parameter_grid()
    if p.ctype is CorrelationType.PEARSON and p.m == 100
]


def bank_trades(prices, corrs, pairs, grid):
    """Every cell's trades from one bank fed the day interval by interval.

    ``prices`` is ``(smax, n_symbols)``; ``corrs`` maps a pair to its
    ``(smax,)`` correlation series."""
    smax = prices.shape[0]
    bank = CellBank(pairs, grid, smax)
    trades = {bank.cell(c): [] for c in range(len(pairs) * len(grid))}
    for s in range(smax):
        row = np.array([corrs[p][s] for p in pairs])
        for c, trade in bank.step(s, prices[s], row):
            if trade is not None:
                trades[bank.cell(c)].append(trade)
    return trades


def stream_trades(prices, corr, params):
    """One frozen ``PairStrategy`` fed a two-leg day."""
    strat = PairStrategy(params, prices.shape[0])
    out = []
    for s in range(prices.shape[0]):
        trade = strat.step(s, prices[s, 0], prices[s, 1], corr[s])
        if trade is not None:
            out.append(trade)
    return out


def assert_all_equal(prices, corrs, pairs, grid):
    """Bank == frozen_run_pair_day == PairStrategy in every cell; returns
    the number of trades compared."""
    got = bank_trades(prices, corrs, pairs, grid)
    n = 0
    for (pair, k), trades in got.items():
        legs = prices[:, list(pair)]
        want = frozen_run_pair_day(legs, corrs[pair], grid[k])
        assert trades == want, (pair, k)
        assert stream_trades(legs, corrs[pair], grid[k]) == want, (pair, k)
        n += len(want)
    return n


def random_walks(seed, n_symbols, smax, common_sd=0.004, own_sd=0.002):
    gen = np.random.default_rng(seed)
    common = gen.normal(0, common_sd, size=smax - 1)
    cols = []
    for k in range(n_symbols):
        start = 40.0 + 20.0 * k
        steps = common + gen.normal(0, own_sd, smax - 1)
        cols.append(np.concatenate([[start], start * np.exp(np.cumsum(steps))]))
    return np.column_stack(cols)


def pearson_corrs(prices, pairs, m):
    r = np.diff(np.log(prices), axis=0)
    smax = prices.shape[0]
    return {
        (i, j): align_corr_series(
            corr_series(r[:, i], r[:, j], m, "pearson"), smax, m
        )
        for i, j in pairs
    }


class TestSingleCell:
    """``TestStreamingEquivalence``'s routes, through a one-cell bank."""

    def test_scenarios(self):
        for scenario in (flat_scenario, diverging_scenario):
            prices, corr = scenario()
            assert_all_equal(prices, {(0, 1): corr}, [(0, 1)], [PARAMS])
        prices, corr = diverging_scenario()
        assert bank_trades(prices, {(0, 1): corr}, [(0, 1)], [PARAMS])[
            ((0, 1), 0)
        ], "the diverging scenario must trade"

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_random_walks(self, seed):
        # The same walks as TestStreamingEquivalence.test_random_walks.
        gen = np.random.default_rng(seed)
        smax = 80
        common = gen.normal(0, 0.004, size=smax - 1)
        p0 = 40 * np.exp(np.cumsum(common + gen.normal(0, 0.002, smax - 1)))
        p1 = 60 * np.exp(np.cumsum(common + gen.normal(0, 0.002, smax - 1)))
        prices = np.column_stack([np.concatenate([[40], p0]),
                                  np.concatenate([[60], p1])])
        corrs = pearson_corrs(prices, [(0, 1)], PARAMS.m)
        assert_all_equal(prices, corrs, [(0, 1)], [PARAMS])

    def test_all_nan_correlation_opens_nothing(self):
        prices, _ = diverging_scenario()
        corr = np.full(prices.shape[0], NAN)
        bank = CellBank([(0, 1)], [PARAMS], prices.shape[0])
        for s in range(prices.shape[0]):
            assert bank.step(s, prices[s], [corr[s]]) == []
        assert bank.open_cells() == []


class TestMultiCell:
    """3 pairs × the 11 Pearson M=100 sets over a full day."""

    SMAX = 780
    PAIRS = [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize(
        "variant",
        [{}, {"stop_loss": 0.002}, {"correlation_reversion": True}],
        ids=["paper", "stop_loss", "corr_reversion"],
    )
    def test_equal_to_frozen(self, variant):
        assert {p.w for p in PEARSON_M100} == {60, 120}
        grid = [replace(p, **variant) for p in PEARSON_M100]
        prices = random_walks(3, 3, self.SMAX, 0.001, 0.0006)
        corrs = pearson_corrs(prices, self.PAIRS, 100)
        got = bank_trades(prices, corrs, self.PAIRS, grid)
        reasons = {t.reason for trades in got.values() for t in trades}
        if variant.get("stop_loss"):
            assert TradeReason.STOP_LOSS in reasons
        if variant.get("correlation_reversion"):
            assert TradeReason.CORR_REVERSION in reasons
        assert assert_all_equal(prices, corrs, self.PAIRS, grid) > 300


class TestStale:
    """Stale intervals: NaN correlation, and ``flatten`` against the frozen
    ``PairStrategy.flatten``."""

    @pytest.mark.parametrize("flatten", [False, True])
    def test_stale_run_equals_frozen(self, flatten):
        smax = 200
        prices = random_walks(11, 3, smax)
        pairs = [(0, 1), (0, 2), (1, 2)]
        corrs = pearson_corrs(prices, pairs, PARAMS.m)
        stale = set(range(40, 44)) | set(range(90, 93)) | {150}
        bank = CellBank(pairs, [PARAMS], smax)
        frozen = {p: PairStrategy(PARAMS, smax) for p in pairs}
        got = {p: [] for p in pairs}
        want = {p: [] for p in pairs}
        degraded = 0
        for s in range(smax):
            if s in stale and flatten:
                events = bank.flatten(s, prices[s])
            else:
                row = [NAN if s in stale else corrs[p][s] for p in pairs]
                events = bank.step(s, prices[s], row)
            for c, trade in events:
                if trade is not None:
                    got[bank.cell(c)[0]].append(trade)
            for (i, j), strat in frozen.items():
                if s in stale and flatten:
                    trade = strat.flatten(s, prices[s, i], prices[s, j])
                else:
                    c = NAN if s in stale else corrs[(i, j)][s]
                    trade = strat.step(s, prices[s, i], prices[s, j], c)
                if trade is not None:
                    want[(i, j)].append(trade)
                    degraded += trade.reason is TradeReason.DEGRADED
        assert got == want
        assert sum(map(len, want.values())) > 0
        if flatten:
            assert degraded > 0, "no stale interval found a position to flatten"


class TestChecks:
    """The same refusals, with the same messages, as the frozen form."""

    def test_out_of_sequence(self):
        bank = CellBank([(0, 1)], [PARAMS], 20)
        bank.step(0, [1.0, 1.0], [NAN])
        with pytest.raises(ValueError, match="expected interval 1, got 2"):
            bank.step(2, [1.0, 1.0], [NAN])
        with pytest.raises(ValueError, match="expected interval 1, got 0"):
            bank.flatten(0, [1.0, 1.0])
        for s in range(1, 20):
            bank.step(s, [1.0, 1.0], [NAN])
        with pytest.raises(ValueError, match="interval 20 beyond smax=20"):
            bank.step(20, [1.0, 1.0], [NAN])

    @pytest.mark.parametrize("bad", [NAN, float("inf"), 0.0, -1.0])
    def test_bad_leg(self, bad):
        # Symbol 2 is nobody's leg: its close is never checked.
        bank = CellBank([(0, 1), (1, 3)], [PARAMS], 20)
        for s in range(3):
            bank.step(s, [1.0, 1.0, NAN, 1.0], [NAN, NAN])
        for leg in (0, 1, 3):
            row = [1.0, 1.0, 1.0, 1.0]
            row[leg] = bad
            with pytest.raises(ValueError, match="positive and finite"):
                bank.step(3, row, [NAN, NAN])
            with pytest.raises(ValueError, match="positive and finite"):
                bank.flatten(3, row)
        bank.step(3, [1.0, 1.0, 1.0, 1.0], [NAN, NAN])  # refused ≠ recorded

    def test_copy_is_independent(self):
        prices, corr = diverging_scenario()
        bank = CellBank([(0, 1)], [PARAMS], prices.shape[0])
        for s in range(26):
            bank.step(s, prices[s], [corr[s]])
        assert bank.open_cells() == [0]
        saved = bank.copy()
        rest = [bank.step(s, prices[s], [corr[s]])
                for s in range(26, prices.shape[0])]
        assert saved.open_cells() == [0] and bank.open_cells() == []
        again = [saved.step(s, prices[s], [corr[s]])
                 for s in range(26, prices.shape[0])]
        assert again == rest


# -- the pipeline component --------------------------------------------------


def collect(name, sink):
    return Context(name, lambda _n, port, payload: sink.append((port, payload)))


def feed_component(comp, intervals):
    """Deliver (s, closes, corr) in order; returns what the component emitted."""
    sink = []
    ctx = collect(comp.name, sink)
    for s, closes, corr in intervals:
        if corr is not None:
            comp.on_message(ctx, "corr", (s, corr))
        comp.on_message(ctx, "closes", (s, closes))
    comp.on_stop(ctx)
    return sink


def feed_frozen(pairs, grid, smax, intervals, degrade=None, param_indices=None):
    """The same intervals through the per-cell loop, NaN head skipped as the
    component skips it."""
    sink = []
    ctx = collect("pair_trading", sink)
    loop = head = None
    for s, closes, corr in intervals:
        if head is None:
            if not np.all(np.isfinite(closes)):
                continue
            head = s
            loop = PerCellStepLoop(pairs, grid, smax - head, degrade, param_indices)
        loop.step_all(ctx, s, s - head, closes, corr)
    return sink


class TestComponent:
    """6 symbols × the 11 Pearson M=100 sets through the component equals
    the per-cell loop it replaced, emission for emission."""

    SMAX = 600
    M = 100

    def day(self, head=0, stale=(), seed=5):
        prices = random_walks(seed, 6, self.SMAX, 0.001, 0.0006)
        prices[:head, 2] = NAN  # symbol 2 has not quoted yet
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        series = pearson_corrs(prices[head:], pairs, self.M)
        intervals = []
        for s in range(self.SMAX):
            corr = None
            if s >= head + self.M:  # matrices arrive from head + M on
                corr = np.eye(6)
                for i, j in pairs:
                    corr[i, j] = corr[j, i] = series[(i, j)][s - head]
                if s in stale:
                    corr = StaleCorr(corr, age=1)
            intervals.append((s, prices[s], corr))
        return pairs, intervals

    def run_both(self, pairs, intervals, grid, degrade=None, indices=None):
        comp = PairTradingComponent(
            pairs, grid, self.SMAX, self.M, degrade=degrade
        )
        comp.param_indices = indices
        got = feed_component(comp, intervals)
        want = feed_frozen(pairs, grid, self.SMAX, intervals, degrade, indices)
        assert got == want
        assert sum(port == "trades" for port, _ in want) > 20
        return got

    def test_same_emissions(self):
        pairs, intervals = self.day()
        indices = tuple(range(3, 3 + len(PEARSON_M100)))
        self.run_both(pairs, intervals, PEARSON_M100, indices=indices)

    def test_nan_head(self):
        pairs, intervals = self.day(head=7)
        self.run_both(pairs, intervals, PEARSON_M100)

    @pytest.mark.parametrize("flatten", [False, True])
    def test_stale_intervals(self, flatten):
        stale = set(range(300, 305)) | set(range(420, 440))
        pairs, intervals = self.day(stale=stale)
        got = self.run_both(
            pairs, intervals, PEARSON_M100, DegradePolicy(flatten=flatten)
        )
        degraded = [
            t for port, payload in got if port == "trades"
            for t in [payload[2]] if t.reason is TradeReason.DEGRADED
        ]
        assert bool(degraded) == flatten

    def test_bad_leg_emits_nothing(self):
        """A bad leg fails the interval before any cell's orders leave."""
        pairs, intervals = self.day()
        comp = PairTradingComponent(pairs, PEARSON_M100, self.SMAX, self.M)
        sink = []
        ctx = collect(comp.name, sink)
        for s, closes, corr in intervals[:-1]:
            if corr is not None:
                comp.on_message(ctx, "corr", (s, corr))
            comp.on_message(ctx, "closes", (s, closes))
        # A cell of a pair ahead of (0, 5), the bad leg's first pair, is
        # open and closes at this last interval: a loop that checked each
        # cell's legs as it went would emit its exit before raising.
        rows, _ = comp.checkpoint_positions(comp.snapshot())
        assert any(row["pair"] < [0, 5] for row in rows)
        s, closes, corr = intervals[-1]
        comp.on_message(ctx, "corr", (s, corr))
        before = len(sink)
        bad = closes.copy()
        bad[5] = 0.0
        with pytest.raises(ValueError, match="positive and finite"):
            comp.on_message(ctx, "closes", (s, bad))
        assert len(sink) == before
