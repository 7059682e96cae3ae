"""Tests for repro.util.timeutil."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.timeutil import (
    MARKET_OPEN_SECONDS,
    TRADING_SECONDS_PER_DAY,
    TimeGrid,
    seconds_to_clock,
)


class TestTimeGrid:
    def test_paper_example_780_intervals(self):
        # "there are exactly 23400 seconds in a typical trading day, and if
        # Δs = 30 seconds, then there will be smax = 780 intervals"
        assert TimeGrid(30).smax == 780

    def test_fifteen_second_bars(self):
        assert TimeGrid(15).smax == 1560

    def test_partial_trailing_interval_dropped(self):
        assert TimeGrid(7, trading_seconds=100).smax == 14

    def test_start_end_of(self):
        grid = TimeGrid(30)
        assert grid.start_of(0) == 0
        assert grid.end_of(0) == 30
        assert grid.start_of(779) == 23370
        assert grid.end_of(779) == 23400

    def test_start_end_reject_bad_index(self):
        grid = TimeGrid(30)
        with pytest.raises(IndexError):
            grid.start_of(780)
        with pytest.raises(IndexError):
            grid.end_of(-1)

    def test_intervals_remaining(self):
        grid = TimeGrid(30)
        assert grid.intervals_remaining(0) == 779
        assert grid.intervals_remaining(779) == 0

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            TimeGrid(0)
        with pytest.raises(ValueError):
            TimeGrid(-30)

    def test_rejects_session_shorter_than_interval(self):
        with pytest.raises(ValueError):
            TimeGrid(100, trading_seconds=50)

    @given(
        delta=st.integers(min_value=1, max_value=600),
        session=st.integers(min_value=600, max_value=23400),
    )
    def test_intervals_tile_the_session(self, delta, session):
        grid = TimeGrid(delta, trading_seconds=session)
        assert grid.smax * delta <= session < (grid.smax + 1) * delta
        for s in (0, grid.smax - 1):
            assert grid.end_of(s) - grid.start_of(s) == delta


class TestSecondsToClock:
    def test_market_open(self):
        assert seconds_to_clock(0) == "09:30:00"

    def test_table2_timestamp(self):
        assert seconds_to_clock(4) == "09:30:04"

    def test_market_close(self):
        assert seconds_to_clock(TRADING_SECONDS_PER_DAY) == "16:00:00"

    def test_fractional_seconds_truncate(self):
        assert seconds_to_clock(59.9) == "09:30:59"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            seconds_to_clock(-0.1)

    def test_open_constant(self):
        assert MARKET_OPEN_SECONDS == 9 * 3600 + 30 * 60
