"""The filter bank's C loop against the frozen per-symbol filter, bitwise.

Every input gives the keep mask and the final ``avg``/``dev``/``seen`` of
``tests.oracle.TcpLikeFilter`` run quote by quote, bit for bit.
"""

import numpy as np
import pytest

from repro.clean.filters import FilterBank, filter_quotes
from repro.marketminer.components.cleaning import CleaningComponent
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid
from tests.oracle import TcpLikeFilter, frozen_filter_quotes
from tests.test_backtest_engines import STUDY, HostileMarket
from tests.test_bars_accumulator import interval_batches
from tests.test_marketminer_components import drive

N_SYMBOLS = 12


def assert_bank_is_oracle(quotes, n_symbols, **params):
    """Run ``quotes`` through a fresh bank and fresh oracle filters; the
    mask, the counts and every symbol's final state must agree."""
    filters = [TcpLikeFilter(**params) for _ in range(n_symbols)]
    expect = frozen_filter_quotes(quotes, filters)
    bank = FilterBank(n_symbols, **params)
    keep, outlier, crossed = filter_quotes(quotes, bank)
    assert keep.tobytes() == expect.tobytes()
    assert crossed == int((quotes["bid"] >= quotes["ask"]).sum())
    assert outlier == quotes.size - crossed - int(expect.sum())
    assert_state(bank, filters)
    return bank


def assert_state(bank, filters):
    assert bank.seen.tolist() == [f._seen for f in filters]
    assert bank.dev.tobytes() == np.array([f._dev for f in filters]).tobytes()
    for s, f in enumerate(filters):
        if f._avg is None:
            assert bank.seen[s] == 0
        else:
            assert bank.avg[s : s + 1].tobytes() == np.float64(f._avg).tobytes()


@pytest.fixture(scope="module")
def full_day():
    """A full-length synthetic session with the simulator's outliers."""
    market = SyntheticMarket(
        default_universe(N_SYMBOLS), SyntheticMarketConfig(), seed=7
    )
    return market.quotes(0, with_outliers=True)


def test_full_day(full_day):
    bank = assert_bank_is_oracle(full_day, N_SYMBOLS)
    assert (bank.seen > 0).all()


@pytest.mark.parametrize("params", [
    {"k": 3.0, "warmup": 5},
    {"alpha": 1.0, "beta": 1.0, "min_dev_frac": 1e-6},
    {"alpha": 0.3, "beta": 0.05, "k": 1.5, "warmup": 1, "min_dev_frac": 0.5},
])
def test_full_day_other_parameters(full_day, params):
    assert_bank_is_oracle(full_day, N_SYMBOLS, **params)


@pytest.mark.parametrize("day", [0, 1])
@pytest.mark.parametrize(
    "mode",
    ["late-start", "halt", "never-quotes", "never-moves", "all-crossed", "empty"],
)
def test_hostile_days(mode, day):
    quotes = HostileMarket(STUDY.build_market(), mode).quotes(day)
    assert_bank_is_oracle(quotes, STUDY.n_symbols)


def test_non_finite_nonpositive_and_crossed_quotes(full_day):
    quotes = full_day.copy()
    rng = np.random.default_rng(3)
    keep = None  # leave that side as quoted
    bad = {  # (bid, ask)
        "nan-bid": (np.nan, keep),
        "nan-ask": (keep, np.nan),
        "inf-ask": (keep, np.inf),
        "-inf-bid": (-np.inf, keep),
        "zero-mid": (-0.5, 0.5),
        "negative-mid": (-5.5, -4.5),
        "huge-mid": (8e307, 9e307),
        "overflowing-mid": (1e308, 1.5e308),
    }
    rows = rng.choice(quotes.size, size=(len(bad) + 2, 40), replace=False)
    for (bid, ask), at in zip(bad.values(), rows):
        if bid is not keep:
            quotes["bid"][at] = bid
        if ask is not keep:
            quotes["ask"][at] = ask
    quotes["ask"][rows[-2]] = quotes["bid"][rows[-2]]  # locked: crossed
    quotes["bid"][rows[-1]], quotes["ask"][rows[-1]] = (  # crossed
        quotes["ask"][rows[-1]], quotes["bid"][rows[-1]],
    )
    # A symbol whose very first quote is bad must still start cleanly.
    first = np.flatnonzero(quotes["symbol"] == 3)[0]
    quotes["bid"][first] = np.nan
    with np.errstate(over="ignore"):  # the overflowing midpoint is inf
        bank = assert_bank_is_oracle(quotes, N_SYMBOLS)
    assert np.isfinite(bank.avg).all() and np.isfinite(bank.dev).all()


def test_fed_whole_equals_fed_by_interval(full_day):
    """A bank fed 60 s intervals one call at a time ends where the bank
    fed the day in one call ends, with the same mask."""
    whole = FilterBank(N_SYMBOLS)
    keep, _, _ = filter_quotes(full_day, whole)
    grid = TimeGrid(60, trading_seconds=23_400)
    streamed = FilterBank(N_SYMBOLS)
    parts = [
        filter_quotes(batch, streamed)[0]
        for _, batch in interval_batches(full_day, grid)
    ]
    assert np.concatenate(parts).tobytes() == keep.tobytes()
    for name in ("avg", "dev", "seen"):
        assert getattr(streamed, name).tobytes() == getattr(whole, name).tobytes()
    filters = [TcpLikeFilter() for _ in range(N_SYMBOLS)]
    assert frozen_filter_quotes(full_day, filters).tobytes() == keep.tobytes()
    assert_state(streamed, filters)


def test_component_restore_replays_byte_identical(full_day):
    """snapshot -> more input -> restore -> the same input: the component
    emits the same bytes every time, so neither side aliases the bank."""
    grid = TimeGrid(60, trading_seconds=23_400)
    batches = interval_batches(full_day, grid)
    component = CleaningComponent(N_SYMBOLS)
    drive(component, batches[:150])
    checkpoint = component.snapshot()
    runs = []
    for _ in range(3):
        out = drive(component, batches[150:300])["quotes"]
        runs.append(b"".join(records.tobytes() for _, records in out))
        result = component.result()
        component.restore(checkpoint)
    assert runs[0] == runs[1] == runs[2]
    assert result["rejected_outlier"] > 0
