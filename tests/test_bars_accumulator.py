"""Tests for bar accumulation (batch and streaming)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bars.accumulator import (
    StreamingBarAccumulator,
    accumulate_bam,
    accumulate_ohlc,
)
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.types import QUOTE_DTYPE
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid

from tests.oracle import PerQuoteBarAccumulator


def mk_quotes(rows):
    """rows: (t, symbol, bid, ask)"""
    arr = np.zeros(len(rows), dtype=QUOTE_DTYPE)
    for i, (t, sym, bid, ask) in enumerate(rows):
        arr[i] = (t, sym, bid, ask, 1, 1)
    return arr


GRID = TimeGrid(10, trading_seconds=50)  # 5 intervals


class TestAccumulateBam:
    def test_last_quote_wins_within_interval(self):
        q = mk_quotes([(0.0, 0, 10.0, 10.2), (5.0, 0, 11.0, 11.2), (9.9, 0, 12.0, 12.2)])
        out = accumulate_bam(q, GRID, 1)
        assert out[0, 0] == pytest.approx(12.1)

    def test_forward_fill_empty_intervals(self):
        q = mk_quotes([(0.0, 0, 10.0, 10.2), (45.0, 0, 20.0, 20.2)])
        out = accumulate_bam(q, GRID, 1)
        np.testing.assert_allclose(out[:, 0], [10.1, 10.1, 10.1, 10.1, 20.1])

    def test_back_fill_leading_gap(self):
        q = mk_quotes([(25.0, 0, 10.0, 10.2)])
        out = accumulate_bam(q, GRID, 1)
        np.testing.assert_allclose(out[:, 0], [10.1] * 5)

    def test_multiple_symbols_independent(self):
        q = mk_quotes([(0.0, 0, 10.0, 10.2), (0.0, 1, 50.0, 50.4), (15.0, 1, 51.0, 51.4)])
        out = accumulate_bam(q, GRID, 2)
        assert out.shape == (5, 2)
        np.testing.assert_allclose(out[:, 0], [10.1] * 5)
        np.testing.assert_allclose(out[:, 1], [50.2, 51.2, 51.2, 51.2, 51.2])

    def test_rejects_symbol_with_no_quotes(self):
        q = mk_quotes([(0.0, 0, 10.0, 10.2)])
        with pytest.raises(ValueError, match="no quotes"):
            accumulate_bam(q, GRID, 2)

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError, match="empty"):
            accumulate_bam(np.empty(0, dtype=QUOTE_DTYPE), GRID, 1)

    def test_rejects_out_of_session_quote(self):
        q = mk_quotes([(55.0, 0, 10.0, 10.2)])
        with pytest.raises(ValueError, match="outside"):
            accumulate_bam(q, GRID, 1)


class TestAccumulateOhlc:
    def test_ohlc_fields(self):
        q = mk_quotes(
            [(0.0, 0, 10.0, 10.2), (3.0, 0, 12.0, 12.2), (6.0, 0, 9.0, 9.2), (9.0, 0, 11.0, 11.2)]
        )
        out = accumulate_ohlc(q, GRID, 1)
        bar = out[0, 0]
        assert bar["open"] == pytest.approx(10.1)
        assert bar["high"] == pytest.approx(12.1)
        assert bar["low"] == pytest.approx(9.1)
        assert bar["close"] == pytest.approx(11.1)
        assert bar["count"] == 4

    def test_empty_interval_carries_close(self):
        q = mk_quotes([(0.0, 0, 10.0, 10.2), (45.0, 0, 20.0, 20.2)])
        out = accumulate_ohlc(q, GRID, 1)
        mid_bar = out[2, 0]
        assert mid_bar["count"] == 0
        assert mid_bar["open"] == mid_bar["close"] == pytest.approx(10.1)

    def test_close_matches_bam(self):
        rng = np.random.default_rng(4)
        rows = []
        t = 0.0
        for _ in range(200):
            t += rng.random() * 0.5
            if t >= 50:
                break
            mid = 100 + rng.normal() * 0.1
            rows.append((t, int(rng.integers(0, 2)), mid - 0.05, mid + 0.05))
        q = mk_quotes(rows)
        ohlc = accumulate_ohlc(q, GRID, 2)
        bam = accumulate_bam(q, GRID, 2)
        np.testing.assert_allclose(ohlc["close"], bam)

    def test_high_ge_low(self):
        q = mk_quotes([(0.0, 0, 10.0, 10.2), (5.0, 0, 11.0, 11.2)])
        out = accumulate_ohlc(q, GRID, 1)
        assert np.all(out["high"] >= out["low"])


def interval_batches(quotes, grid):
    """The day as the collectors cut it: one ``(s, records)`` per interval."""
    bounds = np.searchsorted(
        quotes["t"], np.arange(grid.smax + 1) * grid.delta_s, side="left"
    )
    return [(s, quotes[bounds[s]:bounds[s + 1]]) for s in range(grid.smax)]


def stream_day(quotes, grid, n_symbols):
    acc = StreamingBarAccumulator(grid, n_symbols)
    return np.stack(
        [acc.close_interval(s, recs) for s, recs in interval_batches(quotes, grid)]
    )


def assert_stream_equals_batch(streamed, batch):
    """Bitwise where every symbol has a standing price, NaN-headed before."""
    quoted = np.cumsum(batch["count"], axis=0) > 0  # symbol has quoted by s
    assert streamed[quoted].tobytes() == batch[quoted].tobytes()
    for f in ("open", "high", "low", "close"):
        assert np.all(np.isnan(streamed[f][~quoted]))
    assert np.all(streamed["count"][~quoted] == 0)


class TestStreamingEquivalence:
    def test_matches_batch_when_all_symbols_quote_early(self):
        rng = np.random.default_rng(8)
        rows = [(0.1, 0, 10.0, 10.2), (0.2, 1, 20.0, 20.2)]
        t = 0.3
        while True:
            t += rng.random()
            if t >= 50:
                break
            mid = 15 + rng.normal()
            rows.append((t, int(rng.integers(0, 2)), mid - 0.1, mid + 0.1))
        q = mk_quotes(rows)
        streamed = stream_day(q, GRID, 2)
        batch = accumulate_ohlc(q, GRID, 2)
        assert streamed.tobytes() == batch.tobytes()

    def test_nan_head_before_first_quote(self):
        acc = StreamingBarAccumulator(GRID, 1)
        for s in range(2):  # close 2 intervals with no quotes
            row = acc.close_interval(s, mk_quotes([]))
            assert np.all(np.isnan(row["close"]))
            assert np.all(row["count"] == 0)

    def test_rejects_quote_for_closed_interval(self):
        acc = StreamingBarAccumulator(GRID, 1)
        for s in range(3):
            acc.close_interval(s, mk_quotes([]))
        with pytest.raises(ValueError, match="already closed"):
            acc.close_interval(0, mk_quotes([(5.0, 0, 10.0, 10.2)]))

    def test_rejects_future_quote_without_close(self):
        acc = StreamingBarAccumulator(GRID, 1)
        with pytest.raises(ValueError, match="future interval"):
            acc.close_interval(2, mk_quotes([(25.0, 0, 10.0, 10.2)]))
        assert acc.next_interval == 0

    def test_rejects_double_close(self):
        acc = StreamingBarAccumulator(GRID, 1)
        acc.close_interval(0, mk_quotes([]))
        with pytest.raises(ValueError, match="already closed"):
            acc.close_interval(0, mk_quotes([]))

    def test_rejects_bad_symbol(self):
        acc = StreamingBarAccumulator(GRID, 1)
        for sym in (3, -1):
            with pytest.raises(ValueError, match="symbol"):
                acc.close_interval(0, mk_quotes([(0.0, sym, 10.0, 10.2)]))
        assert acc.next_interval == 0

    def test_rejects_quote_outside_its_interval(self):
        acc = StreamingBarAccumulator(GRID, 1)
        for t in (10.0, 25.0):
            with pytest.raises(ValueError, match="outside interval 0"):
                acc.close_interval(
                    0, mk_quotes([(1.0, 0, 10.0, 10.2), (t, 0, 10.0, 10.2)])
                )
        acc.close_interval(0, mk_quotes([]))
        with pytest.raises(ValueError, match="outside interval 1"):
            acc.close_interval(1, mk_quotes([(9.9, 0, 10.0, 10.2)]))
        assert acc.next_interval == 1  # a refused batch closes nothing

    def test_rejects_interval_beyond_the_grid(self):
        acc = StreamingBarAccumulator(GRID, 1)
        for s in range(GRID.smax):
            acc.close_interval(s, mk_quotes([]))
        with pytest.raises(IndexError, match="outside"):
            acc.close_interval(GRID.smax, mk_quotes([]))

    def test_seeded_30_symbol_day_is_bitwise_the_batch_and_the_parent(self):
        """One kernel, two callers: the stream's rows are the batch's
        wherever a standing price exists, and the per-quote class the
        stream used to be (``tests/oracle.py``) everywhere."""
        grid = TimeGrid(60, trading_seconds=7800)
        market = SyntheticMarket(
            default_universe(30),
            SyntheticMarketConfig(trading_seconds=7800, quote_rate=0.5),
            seed=24,
        )
        quotes = market.quotes(0)
        quotes = quotes[quotes["t"] < grid.smax * grid.delta_s]
        streamed = stream_day(quotes, grid, 30)
        assert_stream_equals_batch(streamed, accumulate_ohlc(quotes, grid, 30))
        frozen = PerQuoteBarAccumulator(30)
        parent = np.stack(
            [frozen.close_interval(r) for _, r in interval_batches(quotes, grid)]
        )
        assert streamed.tobytes() == parent.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_batches_equal_the_batch_accumulator(self, data):
        """Empty intervals, a symbol silent all day, several quotes of one
        symbol in one interval, duplicate timestamps."""
        n_symbols = data.draw(st.integers(1, 4))
        silent = data.draw(st.integers(0, n_symbols - 1))
        rows = data.draw(
            st.lists(
                st.tuples(
                    # Half-second ticks: duplicates and boundary hits are common.
                    st.integers(0, 2 * 50 - 1).map(lambda h: h / 2.0),
                    st.integers(0, n_symbols - 1).filter(
                        lambda i: n_symbols == 1 or i != silent
                    ),
                    st.floats(1.0, 500.0, allow_nan=False),
                    st.floats(0.01, 2.0, allow_nan=False),
                ),
                min_size=1,
                max_size=60,
            )
        )
        q = mk_quotes(
            [(t, sym, mid, mid + width) for t, sym, mid, width in sorted(rows)]
        )
        streamed = stream_day(q, GRID, n_symbols)
        quoted = np.flatnonzero(np.bincount(q["symbol"], minlength=n_symbols))
        assert np.all(
            np.isnan(np.delete(streamed["close"], quoted, axis=1))
        )  # the silent symbol never gets a price
        # The batch form refuses a symbol that never quotes, so compare on
        # the ones that did, renumbered.
        q["symbol"] = np.searchsorted(quoted, q["symbol"])
        batch = accumulate_ohlc(q, GRID, quoted.size)
        assert_stream_equals_batch(streamed[:, quoted], batch)
        frozen = PerQuoteBarAccumulator(quoted.size)
        for (_, recs), row in zip(interval_batches(q, GRID), streamed[:, quoted]):
            assert row.tobytes() == frozen.close_interval(recs).tobytes()
