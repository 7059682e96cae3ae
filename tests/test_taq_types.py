"""Tests for repro.taq.types."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.taq.types import (
    QUOTE_DTYPE,
    Quote,
    quotes_from_records,
    quotes_to_records,
    validate_quote_array,
)

quote_strategy = st.builds(
    Quote,
    t=st.floats(min_value=0, max_value=23399, allow_nan=False),
    symbol=st.integers(min_value=0, max_value=60),
    bid=st.floats(min_value=0.01, max_value=1000).map(lambda x: round(x, 2)),
    ask=st.floats(min_value=0.01, max_value=1000).map(lambda x: round(x, 2)),
    bid_size=st.integers(min_value=1, max_value=999),
    ask_size=st.integers(min_value=1, max_value=999),
)


class TestQuote:
    def test_bam_is_midpoint(self):
        q = Quote(t=0.0, symbol=0, bid=10.0, ask=10.50)
        assert q.bam == pytest.approx(10.25)

    def test_spread(self):
        q = Quote(t=0.0, symbol=0, bid=10.0, ask=10.50)
        assert q.spread == pytest.approx(0.50)

    def test_frozen(self):
        q = Quote(t=0.0, symbol=0, bid=1.0, ask=2.0)
        with pytest.raises(AttributeError):
            q.bid = 5.0


class TestRoundTrip:
    @given(st.lists(quote_strategy, min_size=0, max_size=30))
    def test_records_round_trip(self, quotes):
        records = quotes_to_records(quotes)
        assert records.dtype == QUOTE_DTYPE
        back = quotes_from_records(records)
        assert len(back) == len(quotes)
        for a, b in zip(quotes, back):
            assert a.symbol == b.symbol
            assert a.bid == pytest.approx(b.bid)
            assert a.ask == pytest.approx(b.ask)
            assert a.t == pytest.approx(b.t)

    def test_from_records_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="QUOTE_DTYPE"):
            quotes_from_records(np.zeros(3))


class TestValidateQuoteArray:
    def _mk(self, **overrides):
        arr = np.zeros(3, dtype=QUOTE_DTYPE)
        arr["t"] = [0.0, 1.0, 2.0]
        arr["symbol"] = [0, 1, 0]
        arr["bid"] = 10.0
        arr["ask"] = 10.1
        arr["bid_size"] = 1
        arr["ask_size"] = 1
        for key, value in overrides.items():
            arr[key] = value
        return arr

    def test_accepts_valid(self):
        validate_quote_array(self._mk(), n_symbols=2)

    def test_accepts_empty(self):
        validate_quote_array(np.empty(0, dtype=QUOTE_DTYPE))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="chronological"):
            validate_quote_array(self._mk(t=[2.0, 1.0, 0.0]))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match=">= 0"):
            validate_quote_array(self._mk(t=[-1.0, 0.0, 1.0]))

    def test_rejects_nonpositive_price(self):
        with pytest.raises(ValueError, match="positive"):
            validate_quote_array(self._mk(bid=0.0))

    @pytest.mark.parametrize("field", ["bid", "ask"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_price(self, field, bad):
        # NaN is false under every comparison, so a ``<= 0`` test alone
        # lets it through.
        with pytest.raises(ValueError, match="positive and finite"):
            validate_quote_array(self._mk(**{field: [10.0, bad, 10.0]}))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_time(self, bad):
        with pytest.raises(ValueError, match="timestamps must be finite"):
            validate_quote_array(self._mk(t=[0.0, 1.0, bad]))

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="sizes"):
            validate_quote_array(self._mk(bid_size=0))

    def test_rejects_symbol_out_of_universe(self):
        with pytest.raises(ValueError, match="symbol indices"):
            validate_quote_array(self._mk(symbol=[0, 5, 0]), n_symbols=2)

    def test_allows_crossed_quotes(self):
        # Raw TAQ contains crossed quotes; cleaning, not validation,
        # removes them.
        arr = self._mk()
        arr["bid"] = 11.0  # bid > ask
        validate_quote_array(arr, n_symbols=2)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="QUOTE_DTYPE"):
            validate_quote_array(np.zeros(2))
