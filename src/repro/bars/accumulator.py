"""Bar accumulation: quote streams → per-interval BAM/OHLC bars.

One OHLC reduction, :func:`_ohlc_cells`, and two callers, so the bars of
the two cannot differ: :func:`accumulate_ohlc` runs it over a day (a cell
is an (interval, symbol); empty cells take the day's filled closes) for
the backtests, :class:`StreamingBarAccumulator` over one interval (a cell
is a symbol; empty cells take the previous close) for the MarketMiner
pipeline.

Empty intervals are forward-filled from the previous close (a stock that
does not quote still has a standing price); intervals before a symbol's
first quote are back-filled from that first quote so the output grid is
rectangular, matching how the paper treats infrequently trading stocks via
the BAM "approximation to the actual price level between trades".  A
stream cannot see the first quote coming: its rows are NaN until then.
"""

from __future__ import annotations

import numpy as np

from repro.taq.types import validate_quote_array
from repro.util.timeutil import TimeGrid

#: Per-interval bar: open/high/low/close of the BAM plus the quote count.
OHLC_DTYPE = np.dtype(
    [
        ("open", "f8"),
        ("high", "f8"),
        ("low", "f8"),
        ("close", "f8"),
        ("count", "i4"),
    ]
)


def _interval_indices(t: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Map quote timestamps to grid intervals; drop-out-of-session is an error."""
    if t.size and (t.min() < 0 or t.max() >= grid.smax * grid.delta_s):
        raise ValueError(
            "quote timestamps fall outside the complete intervals of the grid"
        )
    return (t // grid.delta_s).astype(np.int64)


def accumulate_bam(
    records: np.ndarray, grid: TimeGrid, n_symbols: int
) -> np.ndarray:
    """Last BAM per (interval, symbol), forward/back-filled; shape (smax, n).

    ``out[s, i]`` is the paper's ``P_i(s)``: the standing price of symbol
    ``i`` at the close of interval ``s``.
    """
    validate_quote_array(records, n_symbols=n_symbols)
    if records.size == 0:
        raise ValueError("cannot accumulate bars from an empty quote stream")
    s_idx = _interval_indices(records["t"], grid)
    bam = 0.5 * (records["bid"] + records["ask"])
    sym = records["symbol"]

    out = np.full((grid.smax, n_symbols), np.nan)
    # Last quote per (interval, symbol) wins.  Duplicate fancy-index
    # assignment order is undefined in NumPy, so pick the last occurrence
    # of each key explicitly (records are chronological).
    key = s_idx * np.int64(n_symbols) + sym
    _, rev_pos = np.unique(key[::-1], return_index=True)
    last_pos = key.size - 1 - rev_pos
    out[s_idx[last_pos], sym[last_pos]] = bam[last_pos]

    for i in range(n_symbols):
        col = out[:, i]
        valid = np.isfinite(col)
        if not valid.any():
            raise ValueError(f"symbol index {i} has no quotes in the stream")
        # Forward fill.
        idx = np.where(valid, np.arange(grid.smax), 0)
        np.maximum.accumulate(idx, out=idx)
        col[:] = col[idx]
        # Back fill the leading gap.
        first = np.argmax(valid)
        col[:first] = col[first]
    return out


def _ohlc_cells(
    cell: np.ndarray, bam: np.ndarray, standing: np.ndarray
) -> np.ndarray:
    """Open/high/low/close/count of ``bam`` per cell; flat :data:`OHLC_DTYPE`.

    ``cell[i]`` is the cell of (chronological) quote ``i``, an index into
    ``standing``; a cell nobody quoted carries its ``standing`` price in
    all four price fields and ``count == 0``.
    """
    out = np.zeros(standing.size, dtype=OHLC_DTYPE)
    for f in ("open", "high", "low", "close"):
        out[f] = standing
    if cell.size == 0:
        return out
    # Stable: a cell's quotes stay in stream order, first = open, last = close.
    order = np.argsort(cell, kind="stable")
    sorted_cell = cell[order]
    sorted_bam = bam[order]
    change = np.flatnonzero(sorted_cell[1:] != sorted_cell[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [cell.size]))
    hit = sorted_cell[starts]
    out["open"][hit] = sorted_bam[starts]
    out["high"][hit] = np.maximum.reduceat(sorted_bam, starts)
    out["low"][hit] = np.minimum.reduceat(sorted_bam, starts)
    out["close"][hit] = sorted_bam[ends - 1]
    out["count"][hit] = ends - starts
    return out


def accumulate_ohlc(
    records: np.ndarray, grid: TimeGrid, n_symbols: int
) -> np.ndarray:
    """Full OHLC bars of the BAM; shape (smax, n) with :data:`OHLC_DTYPE`.

    Empty intervals carry the forward-filled close in all four price fields
    and ``count == 0``.
    """
    closes = accumulate_bam(records, grid, n_symbols)
    s_idx = _interval_indices(records["t"], grid)
    bam = 0.5 * (records["bid"] + records["ask"])
    cell = s_idx * np.int64(n_symbols) + records["symbol"]
    return _ohlc_cells(cell, bam, closes.ravel()).reshape(closes.shape)


class StreamingBarAccumulator:
    """Interval-at-a-time bar builder for the MarketMiner pipeline: what
    a stream adds to the kernel is the next interval it expects and the
    last close it carries.  Rows are :func:`accumulate_ohlc`'s wherever
    the symbol has quoted, NaN before.
    """

    def __init__(self, grid: TimeGrid, n_symbols: int):
        if n_symbols <= 0:
            raise ValueError(f"n_symbols must be positive, got {n_symbols}")
        self.grid = grid
        self.n_symbols = n_symbols
        self._current = 0  # next interval to close
        self._last_close = np.full(n_symbols, np.nan)

    @property
    def next_interval(self) -> int:
        """Index of the next interval that will be closed."""
        return self._current

    def close_interval(self, s: int, records: np.ndarray) -> np.ndarray:
        """Close interval ``s`` over its quotes (stream order, possibly
        none); return its ``(n_symbols,)`` :data:`OHLC_DTYPE` row."""
        if s != self._current:
            what = "already closed" if s < self._current else "a future interval"
            raise ValueError(
                f"interval {s} is {what}: the next to close is {self._current}"
            )
        self.grid._check_index(s)
        sym = records["symbol"]
        if records.size:
            s_idx = records["t"] // self.grid.delta_s
            if s_idx.min() != s or s_idx.max() != s:
                raise ValueError(f"quote timestamps fall outside interval {s}")
            if sym.min() < 0 or sym.max() >= self.n_symbols:
                raise ValueError(
                    f"symbol indices must lie in [0, {self.n_symbols})"
                )
        bam = 0.5 * (records["bid"] + records["ask"])
        row = _ohlc_cells(sym, bam, self._last_close)
        self._last_close = row["close"].copy()
        self._current += 1
        return row
