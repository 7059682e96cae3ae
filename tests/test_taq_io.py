"""Tests for TAQ file IO (repro.taq.io)."""

import numpy as np
import pytest

from repro.taq.io import format_table2, read_taq_csv, write_taq_csv
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.types import QUOTE_DTYPE
from repro.taq.universe import default_universe


@pytest.fixture(scope="module")
def quotes_and_universe():
    cfg = SyntheticMarketConfig(trading_seconds=600, quote_rate=0.5)
    mkt = SyntheticMarket(default_universe(5), cfg, seed=55)
    return mkt.quotes(0), mkt.universe


class TestRoundTrip:
    def test_lossless_prices_and_symbols(self, tmp_path, quotes_and_universe):
        quotes, universe = quotes_and_universe
        path = tmp_path / "day0.csv"
        write_taq_csv(path, quotes, universe)
        back = read_taq_csv(path, universe)
        assert back.size == quotes.size
        np.testing.assert_array_equal(back["symbol"], quotes["symbol"])
        np.testing.assert_allclose(back["bid"], quotes["bid"], atol=1e-9)
        np.testing.assert_allclose(back["ask"], quotes["ask"], atol=1e-9)
        np.testing.assert_array_equal(back["bid_size"], quotes["bid_size"])
        np.testing.assert_allclose(back["t"], quotes["t"], atol=1e-5)

    def test_empty_file_round_trip(self, tmp_path, quotes_and_universe):
        _, universe = quotes_and_universe
        path = tmp_path / "empty.csv"
        write_taq_csv(path, np.empty(0, dtype=QUOTE_DTYPE), universe)
        back = read_taq_csv(path, universe)
        assert back.size == 0


class TestReadErrors:
    def test_unknown_symbol(self, tmp_path, quotes_and_universe):
        quotes, universe = quotes_and_universe
        path = tmp_path / "day.csv"
        write_taq_csv(path, quotes, universe)
        smaller = default_universe(2)
        with pytest.raises(KeyError):
            read_taq_csv(path, smaller)

    def test_bad_header(self, tmp_path, quotes_and_universe):
        _, universe = quotes_and_universe
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n")
        with pytest.raises(ValueError, match="header"):
            read_taq_csv(path, universe)

    def test_bad_field_count(self, tmp_path, quotes_and_universe):
        _, universe = quotes_and_universe
        path = tmp_path / "short.csv"
        path.write_text(
            "timestamp,symbol,bid,ask,bid_size,ask_size\n09:30:00,XOM,1.0\n"
        )
        with pytest.raises(ValueError, match="expected 6 fields"):
            read_taq_csv(path, universe)

    def test_bad_timestamp(self, tmp_path, quotes_and_universe):
        _, universe = quotes_and_universe
        path = tmp_path / "ts.csv"
        path.write_text(
            "timestamp,symbol,bid,ask,bid_size,ask_size\nnoon,XOM,1.0,1.1,1,1\n"
        )
        with pytest.raises(ValueError, match="timestamp"):
            read_taq_csv(path, universe)


class TestFormatTable2:
    def test_header_matches_paper_columns(self, quotes_and_universe):
        quotes, universe = quotes_and_universe
        text = format_table2(quotes, universe, limit=3)
        header = text.splitlines()[0]
        for col in ("Timestamp", "Symbol", "Bid Price", "Ask Price", "Bid Size", "Ask Size"):
            assert col in header

    def test_row_count_respects_limit(self, quotes_and_universe):
        quotes, universe = quotes_and_universe
        assert len(format_table2(quotes, universe, limit=5).splitlines()) == 6

    def test_timestamps_are_wall_clock(self, quotes_and_universe):
        quotes, universe = quotes_and_universe
        first_row = format_table2(quotes, universe, limit=1).splitlines()[1]
        assert first_row.startswith("09:30:")


class TestVectorisedReader:
    def test_timestamp_error_names_file_and_line(self, tmp_path, quotes_and_universe):
        _, universe = quotes_and_universe
        path = tmp_path / "ts.csv"
        path.write_text(
            "timestamp,symbol,bid,ask,bid_size,ask_size\n"
            "09:30:01.000000,XOM,1.00,1.10,1,1\n"
            "noon,XOM,1.00,1.10,1,1\n"
        )
        with pytest.raises(ValueError, match=rf"{path}:3: bad timestamp"):
            read_taq_csv(path, universe)

    def test_numeric_error_names_file_and_line(self, tmp_path, quotes_and_universe):
        _, universe = quotes_and_universe
        path = tmp_path / "num.csv"
        path.write_text(
            "timestamp,symbol,bid,ask,bid_size,ask_size\n"
            "09:30:01.000000,XOM,oops,1.10,1,1\n"
        )
        with pytest.raises(ValueError, match=rf"{path}:2: bad bid value"):
            read_taq_csv(path, universe)

    @pytest.mark.parametrize(
        "row, field",
        [
            ("09:30:02.000000,CVX,nan,20.20,1,1", "bid"),
            ("09:30:02.000000,CVX,20.10,inf,1,1", "ask"),
            ("09:30:02.000000,CVX,-inf,20.20,1,1", "bid"),
            ("09:30:nan,CVX,20.10,20.20,1,1", "t"),
        ],
    )
    def test_nonfinite_value_names_file_and_line(
        self, tmp_path, quotes_and_universe, row, field
    ):
        """``astype(float)`` parses "nan" and "inf" without complaint."""
        _, universe = quotes_and_universe
        path = tmp_path / "nonfinite.csv"
        path.write_text(
            "timestamp,symbol,bid,ask,bid_size,ask_size\n"
            "09:30:01.000000,XOM,1.00,1.10,1,1\n" + row + "\n"
        )
        with pytest.raises(
            ValueError, match=rf"{path}:3: {field} must be finite"
        ):
            read_taq_csv(path, universe)

    def test_field_count_error_names_line(self, tmp_path, quotes_and_universe):
        _, universe = quotes_and_universe
        path = tmp_path / "short.csv"
        path.write_text(
            "timestamp,symbol,bid,ask,bid_size,ask_size\n"
            "09:30:01.000000,XOM,1.00,1.10,1,1\n"
            "09:30:02.000000,XOM,1.00\n"
        )
        with pytest.raises(ValueError, match=rf"{path}:3: expected 6 fields"):
            read_taq_csv(path, universe)

    def test_legacy_crlf_and_plain_lf_files_both_read(self, tmp_path, quotes_and_universe):
        _, universe = quotes_and_universe
        body = (
            "timestamp,symbol,bid,ask,bid_size,ask_size{eol}"
            "09:30:01.500000,XOM,1.00,1.10,2,3{eol}"
        )
        for eol in ("\r\n", "\n"):
            path = tmp_path / f"eol{len(eol)}.csv"
            path.write_bytes(body.format(eol=eol).encode())
            back = read_taq_csv(path, universe)
            assert back.size == 1
            assert back["t"][0] == 1.5
            assert back["bid_size"][0] == 2

    def test_second_stamped_rows_without_fraction_read(self, tmp_path, quotes_and_universe):
        _, universe = quotes_and_universe
        path = tmp_path / "taq.csv"
        path.write_text(
            "timestamp,symbol,bid,ask,bid_size,ask_size\n"
            "09:30:05,XOM,1.00,1.10,1,1\n"
        )
        assert read_taq_csv(path, universe)["t"][0] == 5.0


class TestFractionCarry:
    def test_fraction_rounding_carries_into_the_next_second(self, tmp_path, quotes_and_universe):
        _, universe = quotes_and_universe
        rec = np.zeros(2, dtype=QUOTE_DTYPE)
        rec["t"] = [0.9999997, 5.0]
        rec["bid"] = 1.0
        rec["ask"] = 1.1
        rec["bid_size"] = 1
        rec["ask_size"] = 1
        path = tmp_path / "carry.csv"
        write_taq_csv(path, rec, universe)
        first = path.read_text().splitlines()[1]
        assert first.startswith("09:30:01.000000,")
        back = read_taq_csv(path, universe)
        assert back["t"][0] == pytest.approx(rec["t"][0], abs=5e-7)
