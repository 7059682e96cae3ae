"""Tests for the TCP-like cleaning filter."""

import numpy as np
import pytest

from repro.clean.filters import (
    CleaningStats,
    FilterBank,
    clean_quotes,
    filter_quotes,
)
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.types import QUOTE_DTYPE
from repro.taq.universe import default_universe


def feed(bank, *prices):
    """Feed symbol 0 one uncrossed quote per price (its bid–ask midpoint);
    return each quote's keep flag."""
    prices = np.asarray(prices, dtype=float)
    quotes = np.zeros(prices.size, dtype=QUOTE_DTYPE)
    quotes["bid"] = prices - 0.005
    quotes["ask"] = prices + 0.005
    keep, _, _ = filter_quotes(quotes, bank)
    return keep


class TestTcpLikeFilter:
    """The filter's behaviour on one symbol of a :class:`FilterBank`."""

    def test_accepts_stable_stream(self):
        bank = FilterBank(1)
        assert feed(bank, *(100.0 + 0.01 * (i % 3) for i in range(200))).all()

    def test_rejects_decimal_slip(self):
        bank = FilterBank(1)
        feed(bank, *[100.0] * 50)
        assert not feed(bank, 1000.0)[0]  # 10x typo
        assert not feed(bank, 10.0)[0]  # 0.1x typo

    def test_rejection_does_not_poison_estimates(self):
        bank = FilterBank(1)
        feed(bank, *[100.0] * 50)
        before = bank.copy()
        assert not feed(bank, 1000.0)[0]
        assert bank.avg[0] == before.avg[0]
        assert bank.dev[0] == before.dev[0]
        assert bank.seen[0] == before.seen[0] == 50

    def test_recovers_after_outlier_burst(self):
        bank = FilterBank(1)
        feed(bank, *[100.0] * 50)
        assert not feed(bank, *[999.0] * 5).any()
        assert feed(bank, 100.05)[0]

    def test_warmup_accepts_everything(self):
        bank = FilterBank(1, warmup=10)
        # Wild swings during warmup are accepted (estimates are forming).
        assert feed(bank, 100.0, 500.0, 50.0).all()

    def test_tracks_drifting_price(self):
        bank = FilterBank(1)
        # steady 1bp drift per tick
        assert feed(bank, *100.0 * 1.0001 ** np.arange(1, 1001)).all()

    def test_rejects_nonpositive_and_nan(self):
        bank = FilterBank(1)
        feed(bank, 100.0)
        assert not feed(bank, 0.0, -5.0, float("nan")).any()
        assert bank.seen[0] == 1

    def test_deviation_floor_prevents_zero_band(self):
        bank = FilterBank(1, min_dev_frac=1e-3)
        feed(bank, *[100.0] * 100)  # constant stream, dev decays toward 0
        # A move within the floor band is still accepted.
        assert feed(bank, 100.2)[0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"beta": -0.1},
            {"k": 0.0},
            {"warmup": 0},
            {"min_dev_frac": 0.0},
            {"n_symbols": 0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            FilterBank(**{"n_symbols": 1, **kwargs})


class TestCleanQuotes:
    @pytest.fixture(scope="class")
    def dirty_and_clean(self):
        cfg = SyntheticMarketConfig(
            trading_seconds=3600, quote_rate=0.9, outlier_prob=2e-3
        )
        mkt = SyntheticMarket(default_universe(6), cfg, seed=11)
        return mkt.quotes(0, with_outliers=True), mkt.quotes(0, with_outliers=False)

    def test_removes_most_outliers_keeps_good_data(self, dirty_and_clean):
        dirty, clean = dirty_and_clean
        corrupted = (dirty["bid"] != clean["bid"]) | (dirty["ask"] != clean["ask"])
        kept, stats = clean_quotes(dirty, 6)
        assert stats.total == dirty.size
        # At least 80% of corrupted quotes removed...
        assert stats.rejected_outlier >= 0.8 * corrupted.sum()
        # ...with under 1% collateral damage.
        assert stats.accepted >= 0.99 * (dirty.size - corrupted.sum())

    def test_clean_input_passes_through(self, dirty_and_clean):
        _, clean = dirty_and_clean
        kept, stats = clean_quotes(clean, 6)
        assert stats.rejected_outlier / stats.total < 0.01
        assert stats.rejected_crossed == 0

    def test_crossed_quotes_dropped(self):
        arr = np.zeros(3, dtype=QUOTE_DTYPE)
        arr["t"] = [0.0, 1.0, 2.0]
        arr["bid"] = [10.0, 11.0, 10.0]
        arr["ask"] = [10.1, 10.5, 10.1]  # middle quote crossed
        arr["bid_size"] = arr["ask_size"] = 1
        kept, stats = clean_quotes(arr, 1)
        assert stats.rejected_crossed == 1
        assert kept.size == 2

    def test_preserves_chronological_order(self, dirty_and_clean):
        dirty, _ = dirty_and_clean
        kept, _ = clean_quotes(dirty, 6)
        assert np.all(np.diff(kept["t"]) >= 0)

    def test_empty_input(self):
        kept, stats = clean_quotes(np.empty(0, dtype=QUOTE_DTYPE), 3)
        assert kept.size == 0
        assert stats.acceptance_rate == 1.0


class TestCleaningStats:
    def test_derived_fields(self):
        stats = CleaningStats(
            total=100, accepted=90, rejected_outlier=7, rejected_crossed=3
        )
        assert stats.rejected == 10
        assert stats.acceptance_rate == pytest.approx(0.9)
