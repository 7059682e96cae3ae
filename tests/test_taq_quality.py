"""Tests for the quote data-quality report."""

import numpy as np
import pytest

from repro.clean.filters import clean_quotes
from repro.taq.quality import quality_report
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.types import QUOTE_DTYPE
from repro.taq.universe import default_universe


@pytest.fixture(scope="module")
def market_and_report():
    cfg = SyntheticMarketConfig(
        trading_seconds=1800, quote_rate=0.8, outlier_prob=3e-3
    )
    market = SyntheticMarket(default_universe(4), cfg, seed=1)
    quotes = market.quotes(0)
    report = quality_report(quotes, market.universe, session_seconds=1800)
    return market, quotes, report


class TestQualityReport:
    def test_counts_add_up(self, market_and_report):
        _, quotes, report = market_and_report
        assert report.total_quotes == quotes.size
        assert sum(s.n_quotes for s in report.symbols) == quotes.size

    def test_quote_rate(self, market_and_report):
        _, _, report = market_and_report
        for s in report.symbols:
            assert s.quotes_per_second == pytest.approx(s.n_quotes / 1800)
            # quote_rate=0.8 => ~0.8 quotes/sec/symbol.
            assert 0.6 < s.quotes_per_second < 1.0

    def test_spreads_sane(self, market_and_report):
        _, _, report = market_and_report
        for s in report.symbols:
            assert s.median_spread > 0
            # Config spread ~6bps; median within a small factor.
            assert 3 < s.median_spread_bps < 30
            assert s.max_spread_bps >= s.median_spread_bps

    def test_outliers_detected(self, market_and_report):
        _, _, report = market_and_report
        assert sum(s.rejected_outlier for s in report.symbols) > 0

    def test_rejections_are_the_cleaning_pass_s(self, market_and_report):
        """The report reads its outliers off the mask ``clean_quotes``
        keeps by, so the two cannot count differently."""
        market, quotes, report = market_and_report
        quotes = quotes.copy()
        swap = np.arange(7, quotes.size, 97)  # cross some quotes too
        quotes["bid"][swap], quotes["ask"][swap] = (
            quotes["ask"][swap], quotes["bid"][swap],
        )
        report = quality_report(quotes, market.universe, session_seconds=1800)
        _, stats = clean_quotes(quotes, len(market.universe))
        assert stats.rejected_outlier > 0 and stats.rejected_crossed == swap.size
        assert (
            sum(s.rejected_outlier for s in report.symbols)
            == stats.rejected_outlier
        )
        assert sum(s.crossed for s in report.symbols) == stats.rejected_crossed

    def test_lookup_and_worst(self, market_and_report):
        market, _, report = market_and_report
        first = market.universe.symbols[0]
        assert report.of(first).symbol == first
        with pytest.raises(KeyError):
            report.of("ZZZZ")
        assert report.worst_symbol.rejection_rate == max(
            s.rejection_rate for s in report.symbols
        )

    def test_format_renders_all_symbols(self, market_and_report):
        market, _, report = market_and_report
        text = report.format()
        for sym in market.universe.symbols:
            assert sym in text
        assert "market-wide" in text

    def test_clean_stream_near_zero_rejections(self):
        cfg = SyntheticMarketConfig(
            trading_seconds=1800, quote_rate=0.8, outlier_prob=0.0
        )
        market = SyntheticMarket(default_universe(3), cfg, seed=2)
        report = quality_report(market.quotes(0), market.universe)
        assert all(s.crossed == 0 for s in report.symbols)
        total = sum(s.rejected_outlier for s in report.symbols)
        assert total <= 0.005 * report.total_quotes

    def test_empty_stream(self):
        universe = default_universe(2)
        report = quality_report(
            np.empty(0, dtype=QUOTE_DTYPE), universe, session_seconds=100
        )
        assert report.total_quotes == 0
        assert all(s.n_quotes == 0 for s in report.symbols)
        assert report.format()  # renders without error
