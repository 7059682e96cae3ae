"""The per-pair strategy state machine (paper §III, steps 1–6).

:class:`DayBlock` holds one day's bar closes for the pairs a caller
trades and checks them once; :meth:`DayBlock.scan` runs one (pair,
parameter set) cell over the day and returns its trades — the paper's
return set ``R_p^{t,k}``.  The scan is event-driven: the divergence
signals are computed vectorised, the scan jumps from one entry candidate
to the next, walks each open position forward to its exit, and reduces
the trailing ``RT`` spread window only at entries.  :func:`run_pair_day`
is the one-pair call of the same scan.

:class:`CellBank` is the streaming form used by the MarketMiner pipeline
component: every (pair, parameter set) cell of the stream held as
arrays and advanced one interval at a time by a fixed number of numpy
operations, on the batch's own definitions (C̄ a cumsum difference,
freshness a diverged run shorter than ``Y``, the ``RT`` mean the
contiguous slice's ``ndarray.mean``), so it emits the trades
:func:`run_pair_day` produces by construction.  The one-object-per-cell
``PairStrategy`` it replaced is kept as a test oracle.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.strategy.costs import ExecutionModel
from repro.strategy.params import StrategyParams
from repro.strategy.positions import (
    PairPosition,
    return_unchecked,
    shares_unchecked,
)
from repro.strategy.retracement import level_unchecked
from repro.strategy.signals import divergence_signals


class TradeReason(enum.Enum):
    """Why a position was closed."""

    RETRACEMENT = "retracement"
    MAX_HOLDING = "max_holding"
    END_OF_DAY = "end_of_day"
    STOP_LOSS = "stop_loss"
    CORR_REVERSION = "corr_reversion"
    #: Forced flat by a degradation policy (stale correlation input).
    DEGRADED = "degraded"


@dataclass(frozen=True, slots=True)
class Trade:
    """One completed round trip on a pair."""

    entry_s: int
    exit_s: int
    ret: float
    reason: TradeReason
    long_leg: int
    n_long: int
    n_short: int

    @property
    def holding_periods(self) -> int:
        return self.exit_s - self.entry_s


def align_corr_series(series: np.ndarray, smax: int, m: int) -> np.ndarray:
    """Embed a rolling-correlation series into full interval indexing.

    ``series`` is the output of :func:`repro.corr.batch.corr_series`
    computed on the day's 1-period returns (length ``smax - 1``): its
    index ``k`` covers returns ``k .. k+m-1``, i.e. prices ``k .. k+m``,
    so it is ``C(s)`` for ``s = k + m``.  The result has length ``smax``
    with NaN for the warm-up intervals ``s < m``.
    """
    series = np.asarray(series, dtype=float)
    expected = smax - m
    if series.shape != (expected,):
        raise ValueError(
            f"series has shape {series.shape}, expected ({expected},) for "
            f"smax={smax}, m={m}"
        )
    out = np.full(smax, np.nan)
    out[m:] = series
    return out


class _PairRows:
    """One pair's rows of a :class:`DayBlock` as Python lists, plus the
    trailing-``RT`` spread statistics of the entries scanned so far."""

    __slots__ = ("leg0", "leg1", "spread", "spread_list", "windows")

    def __init__(self, prices: np.ndarray, i: int, j: int):
        self.leg0 = prices[:, i].tolist()
        self.leg1 = prices[:, j].tolist()
        self.spread = prices[:, i] - prices[:, j]
        self.spread_list = self.spread.tolist()
        self.windows: dict[tuple[int, int], tuple[float, float, float]] = {}

    def window(self, rt: int, e: int) -> tuple[float, float, float]:
        """Low, high and mean of the ``rt`` spreads ending at ``e``.

        The mean is ``ndarray.mean`` of the contiguous 1-D slice: its
        pairwise summation is the definition the trades are bitwise
        equal to, which a Python ``sum`` is not.
        """
        stats = self.windows.get((rt, e))
        if stats is None:
            window = self.spread_list[e - rt + 1 : e + 1]
            stats = (
                min(window), max(window),
                float(self.spread[e - rt + 1 : e + 1].mean()),
            )
            self.windows[(rt, e)] = stats
        return stats


class DayBlock:
    """One day's bar closes, checked once, for the pairs a caller trades.

    ``prices`` is the day's ``(smax, n_symbols)`` closes; ``pairs`` lists
    the ``(i, j)`` columns :meth:`scan` addresses by position.  Every
    symbol is checked finite and positive over the whole day here, once:
    a cell with a leg that fails raises from :meth:`scan`, so a bad
    symbol fails only its own cells.  The scan keeps the rows of the pair
    it last scanned and rebuilds them when asked for another, so callers
    scan pair-major.
    """

    def __init__(self, prices: np.ndarray, pairs: list[tuple[int, int]]):
        prices = np.asarray(prices, dtype=float)
        if prices.ndim != 2:
            raise ValueError(f"prices must be (smax, symbols), got {prices.shape}")
        self._prices = prices
        self.pairs = list(pairs)
        self.smax = prices.shape[0]
        self._tradeable = ((prices > 0) & np.isfinite(prices)).all(axis=0)
        self._current: tuple[int, _PairRows] | None = None

    def _rows(self, p: int) -> _PairRows:
        if self._current is not None and self._current[0] == p:
            return self._current[1]
        i, j = self.pairs[p]
        if not (self._tradeable[i] and self._tradeable[j]):
            raise ValueError("prices must be positive and finite")
        rows = _PairRows(self._prices, i, j)
        self._current = (p, rows)
        return rows

    def scan(
        self,
        p: int,
        corr: np.ndarray,
        params: StrategyParams,
        execution: ExecutionModel | None = None,
        salt: int = 0,
    ) -> list[Trade]:
        """Backtest pair ``pairs[p]`` under one parameter set over the day.

        ``corr``, ``params``, ``execution`` and ``salt`` are as for
        :func:`run_pair_day`.  Entry candidates are the signalled
        intervals at least ``ST`` before the close; one that falls while a
        position is open is skipped, and only the rest draw the fill
        lottery.  An open position is walked forward interval by interval
        under the exit rules in priority order — retracement, holding
        period, stop loss, correlation reversion, end of day — and the
        next entry may come no earlier than the interval after its exit.
        """
        smax = self.smax
        corr = np.asarray(corr, dtype=float)
        if corr.shape != (smax,):
            raise ValueError(f"corr must be ({smax},), got {corr.shape}")
        rows = self._rows(p)
        start = params.first_active_interval
        if start >= smax - params.st:
            return []

        signal, c_bar = divergence_signals(
            corr, params.a, params.d, params.w, params.y
        )
        leg0, leg1, spread = rows.leg0, rows.leg1, rows.spread_list
        w, hp, l, rt = params.w, params.hp, params.l, params.rt
        stop_loss = params.stop_loss
        reversion = params.correlation_reversion
        if reversion:
            corr_l, c_bar_l = corr.tolist(), c_bar.tolist()
            band = 1.0 - params.d
        last = smax - 1

        trades: list[Trade] = []
        free = start  # no entry before this: no same-interval re-entry
        for e in np.flatnonzero(signal[start : smax - params.st]).tolist():
            e += start
            if e < free or (
                execution is not None and not execution.entry_fills(e, salt)
            ):
                continue
            # Long the under-performer: the leg with the lower W-period return.
            if leg0[e] / leg0[e - w] - 1.0 <= leg1[e] / leg1[e - w] - 1.0:
                long_leg, longs, shorts = 0, leg0, leg1
            else:
                long_leg, longs, shorts = 1, leg1, leg0
            p_long, p_short = longs[e], shorts[e]
            n_long, n_short = shares_unchecked(p_long, p_short)
            level, direction = level_unchecked(*rows.window(rt, e), spread[e], l)
            rising, held = direction > 0, e + hp
            for x in range(e + 1, smax):
                if spread[x] >= level if rising else spread[x] <= level:
                    reason = TradeReason.RETRACEMENT
                elif x == held:
                    reason = TradeReason.MAX_HOLDING
                elif stop_loss is not None and return_unchecked(
                    p_long, n_long, p_short, n_short, longs[x], shorts[x]
                ) <= -stop_loss:
                    reason = TradeReason.STOP_LOSS
                elif (
                    reversion
                    and math.isfinite(c_bar_l[x])
                    and c_bar_l[x] * band <= corr_l[x] < c_bar_l[x]
                ):
                    reason = TradeReason.CORR_REVERSION
                elif x == last:
                    reason = TradeReason.END_OF_DAY
                else:
                    continue
                break
            ret = return_unchecked(
                p_long, n_long, p_short, n_short, longs[x], shorts[x]
            )
            if execution is not None:
                position = PairPosition(
                    entry_s=e,
                    long_leg=long_leg,
                    n_long=n_long,
                    n_short=n_short,
                    entry_price_long=p_long,
                    entry_price_short=p_short,
                    entry_spread=spread[e],
                    retracement_level=level,
                    retracement_direction=direction,
                )
                ret = execution.net_return(ret, position, longs[x], shorts[x])
            trades.append(
                Trade(e, x, ret, reason, long_leg, n_long, n_short)
            )
            free = x + 1
        return trades


def run_pair_day(
    prices: np.ndarray,
    corr: np.ndarray,
    params: StrategyParams,
    execution: ExecutionModel | None = None,
    salt: int = 0,
) -> list[Trade]:
    """Backtest one (pair, parameter set) over one day.

    The one-pair call of :meth:`DayBlock.scan`.

    Parameters
    ----------
    prices:
        ``(smax, 2)`` BAM closes of the pair's two legs.
    corr:
        ``(smax,)`` correlation series ``C(s)`` with NaN warm-up, as
        produced by :func:`align_corr_series`.
    params:
        The parameter set ``k``.
    execution:
        Optional implementation-shortfall model (paper §VI future work):
        transaction costs and impact net against each trade's return,
        and entries may fail to fill (lost opportunity).
    salt:
        Distinguishes the fill lottery of concurrent strategies (pass a
        pair/parameter identifier).

    Returns the day's completed trades in entry order; any position still
    open at the last interval is closed there (step 5: "we should reverse
    all positions at the end of the trading day").
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 2 or prices.shape[1] != 2:
        raise ValueError(f"prices must be (smax, 2), got {prices.shape}")
    return DayBlock(prices, [(0, 1)]).scan(
        0, corr, params, execution=execution, salt=salt
    )


class CellBank:
    """Every (pair, parameter set) cell of a stream, held as arrays.

    ``pairs`` are ``(i, j)`` columns of the close rows fed to
    :meth:`step`; cell ``c`` is pair ``c // len(grid)`` under parameter
    set ``c % len(grid)``.  Each step advances every cell with a fixed
    number of numpy operations; Python runs only for the cells that open
    or close.  The definitions are the batch's: C̄ is
    :func:`~repro.strategy.signals.average_correlation`'s cumsum
    difference (a running row sum is sequential, so its floats are
    ``np.cumsum``'s), a divergence is fresh while the diverged run before
    ``s`` is shorter than ``Y`` (``prev_count < y``), and the ``RT``
    spread mean is ``ndarray.mean`` of the contiguous slice, as in
    :class:`DayBlock` — so a cell trades exactly as :func:`run_pair_day`.
    """

    def __init__(
        self, pairs: list[tuple[int, int]], grid: list[StrategyParams], smax: int
    ):
        if smax <= 0:
            raise ValueError(f"smax must be positive, got {smax}")
        self.pairs, self.grid, self.smax = [tuple(p) for p in pairs], list(grid), smax
        n_pairs, n_sets = len(self.pairs), len(self.grid)
        # Closes are kept for the symbols the pairs use only.
        self._symbols, legs = np.unique(self.pairs, return_inverse=True)
        self._leg0, self._leg1 = legs.reshape(n_pairs, 2).T
        k = np.tile(np.arange(n_sets), n_pairs)
        self._pair = np.repeat(np.arange(n_pairs), n_sets)
        self._col0, self._col1 = self._leg0[self._pair], self._leg1[self._pair]

        def per_cell(values, dtype=float):
            return np.asarray(values, dtype=dtype)[k]

        grid = self.grid
        self._w = per_cell([p.w for p in grid], np.int64)
        self._y = per_cell([p.y for p in grid], np.int64)
        self._a = per_cell([p.a for p in grid])
        self._band = per_cell([1.0 - p.d for p in grid])
        self._first_entry = per_cell(
            [max(p.first_active_interval, p.y) for p in grid], np.int64
        )
        self._last_entry = per_cell([smax - 1 - p.st for p in grid], np.int64)
        self._stop = per_cell([-math.inf if p.stop_loss is None else -p.stop_loss
                               for p in grid])
        self._reversion = per_cell([p.correlation_reversion for p in grid], bool)

        self._s = 0
        self._prices = np.full((smax, self._symbols.size), np.nan)
        self._spread = np.full((n_pairs, smax), np.nan)  # rows: contiguous RT
        self._csum = np.zeros((smax + 1, n_pairs))
        self._count = np.zeros((smax + 1, n_pairs), dtype=np.int64)
        n = k.size
        self._open = np.zeros(n, dtype=bool)
        self._rising = np.zeros(n, dtype=bool)
        (self._run, self._entry_s, self._held, self._long_leg, self._long_col,
         self._short_col, self._n_long, self._n_short) = np.zeros((8, n), np.int64)
        (self._entry_long, self._entry_short, self._entry_spread,
         self._level) = np.full((4, n), np.nan)

    def cell(self, c: int) -> tuple[tuple[int, int], int]:
        """``(pair, parameter index)`` of cell ``c``."""
        return self.pairs[c // len(self.grid)], c % len(self.grid)

    def open_cells(self) -> list[int]:
        """The cells holding a position, in cell order."""
        return np.flatnonzero(self._open).tolist()

    def copy(self) -> CellBank:
        """An independent copy (a checkpoint)."""
        return copy.deepcopy(self)

    def position(self, c: int) -> PairPosition | None:
        """Cell ``c``'s open position, or None when it is flat."""
        if not self._open[c]:
            return None
        return PairPosition(
            int(self._entry_s[c]), int(self._long_leg[c]), int(self._n_long[c]),
            int(self._n_short[c]), float(self._entry_long[c]),
            float(self._entry_short[c]), float(self._entry_spread[c]),
            float(self._level[c]), 1 if self._rising[c] else -1,
        )

    def entry(self, c: int) -> tuple[int, int, int]:
        """``(long leg, long shares, short shares)`` of cell ``c``'s position."""
        return int(self._long_leg[c]), int(self._n_long[c]), int(self._n_short[c])

    def set_position(self, c: int, position: PairPosition) -> None:
        """Open ``position`` in cell ``c`` (the inverse of :meth:`position`)."""
        p = position
        self._store(
            c, p.entry_s, p.long_leg, p.n_long, p.n_short, p.entry_price_long,
            p.entry_price_short, p.entry_spread, p.retracement_level,
            p.retracement_direction,
        )

    def _store(
        self, c, entry_s, long_leg, n_long, n_short, p_long, p_short, spread,
        level, direction,
    ) -> None:
        """Write an open position into cell ``c``'s columns."""
        cols = (self._col0[c], self._col1[c])
        self._open[c] = True
        self._entry_s[c] = entry_s
        self._held[c] = entry_s + self.grid[c % len(self.grid)].hp
        self._long_leg[c] = long_leg
        self._long_col[c], self._short_col[c] = cols[long_leg], cols[1 - long_leg]
        self._n_long[c], self._n_short[c] = n_long, n_short
        self._entry_long[c], self._entry_short[c] = p_long, p_short
        self._entry_spread[c] = spread
        self._level[c] = level
        self._rising[c] = direction > 0

    def _record(self, s: int, closes, corr_row) -> np.ndarray:
        """Check ``s`` is the next interval and every leg is positive and
        finite, then store its closes and correlations (a refused interval
        leaves the bank as it was); returns the legs' closes."""
        if s != self._s:
            raise ValueError(f"expected interval {self._s}, got {s}")
        if s >= self.smax:
            raise ValueError(f"interval {s} beyond smax={self.smax}")
        row = np.asarray(closes, dtype=float)[self._symbols]
        if not ((row > 0.0) & (row < math.inf)).all():  # false for NaN
            raise ValueError("prices must be positive and finite")
        self._prices[s] = row
        self._spread[:, s] = row[self._leg0] - row[self._leg1]
        valid = np.isfinite(corr_row)
        np.add(self._csum[s], np.where(valid, corr_row, 0.0), out=self._csum[s + 1])
        np.add(self._count[s], valid, out=self._count[s + 1])
        self._s = s + 1
        return row

    def step(self, s: int, closes, corr_row) -> list[tuple[int, Trade | None]]:
        """Advance every cell through interval ``s``.

        ``closes`` is the interval's close row, indexed by the pairs'
        columns; ``corr_row`` has one correlation per pair, NaN where
        there is none (warm-up, stale).  Returns ``(cell, trade)`` for each
        cell that closed a position and ``(cell, None)`` for each that
        opened one, in cell order (a cell never does both at one ``s``).
        """
        corr_row = np.asarray(corr_row, dtype=float)
        row = self._record(s, closes, corr_row)
        pair, w, csum, count = self._pair, self._w, self._csum, self._count
        lo = np.maximum(s + 1 - w, 0)  # a clipped window is never full
        full = count[s + 1, pair] - count[lo, pair] == w
        c_bar = np.where(full, (csum[s + 1, pair] - csum[lo, pair]) / w, np.nan)
        corr = corr_row[pair]
        diverged = corr < c_bar * self._band
        # Freshness: the diverged run before s is shorter than Y.
        enter = np.flatnonzero(
            ~self._open & diverged & (c_bar > self._a) & (self._run < self._y)
            & (s >= self._first_entry) & (s <= self._last_entry)
        ).tolist()
        self._run = np.where(diverged, self._run + 1, 0)
        events = self._exit(s, row, corr, c_bar) if self._open.any() else []
        events += self._enter(s, enter, row)
        return sorted(events, key=lambda event: event[0])

    def _exit(self, s, row, corr, c_bar) -> list[tuple[int, Trade]]:
        """The exit rules in priority order — retracement, holding period,
        stop loss, correlation reversion, end of day — over the open cells."""
        spread = self._spread[self._pair, s]
        retraced = np.where(self._rising, spread >= self._level, spread <= self._level)
        held = s >= self._held
        e_long, e_short = self._entry_long, self._entry_short
        n_long, n_short = self._n_long, self._n_short
        ret = (
            (row[self._long_col] - e_long) * n_long
            + (e_short - row[self._short_col]) * n_short
        ) / (e_long * n_long + e_short * n_short)
        stopped = ret <= self._stop
        reverted = self._reversion & (c_bar * self._band <= corr) & (corr < c_bar)
        last = s == self.smax - 1
        closing = self._open & (retraced | held | stopped | reverted | last)
        events = []
        for c in np.flatnonzero(closing).tolist():
            reason = (
                TradeReason.RETRACEMENT if retraced[c]
                else TradeReason.MAX_HOLDING if held[c]
                else TradeReason.STOP_LOSS if stopped[c]
                else TradeReason.CORR_REVERSION if reverted[c]
                else TradeReason.END_OF_DAY
            )
            events.append((c, self._close(c, s, row, reason)))
        return events

    def flatten(self, s: int, closes) -> list[tuple[int, Trade | None]]:
        """Degraded-mode step: record ``s`` with NaN correlation, open
        nothing and close every open cell (reason ``DEGRADED``).  NaN is
        never diverged, so every diverged run restarts."""
        row = self._record(s, closes, np.full(len(self.pairs), np.nan))
        self._run[:] = 0
        return [
            (c, self._close(c, s, row, TradeReason.DEGRADED))
            for c in self.open_cells()
        ]

    def _enter(
        self, s: int, cells: list[int], row: np.ndarray
    ) -> list[tuple[int, None]]:
        """Steps 3–5 per entering cell: long the under-performer (the leg
        with the lower W-period return), size, set the retracement."""
        n_sets, windows = len(self.grid), {}
        for c in cells:
            params, p = self.grid[c % n_sets], c // n_sets
            i0, i1 = self._col0[c], self._col1[c]
            a0, a1 = float(row[i0]), float(row[i1])
            back = self._prices[s - params.w]
            if a0 / back[i0] - 1.0 <= a1 / back[i1] - 1.0:
                long_leg, p_long, p_short = 0, a0, a1
            else:
                long_leg, p_long, p_short = 1, a1, a0
            stats = windows.get((p, params.rt))
            if stats is None:  # the sets of a pair often enter together
                window = self._spread[p, s - params.rt + 1 : s + 1]
                stats = windows[(p, params.rt)] = (
                    float(window.min()), float(window.max()), float(window.mean())
                )
            spread = float(self._spread[p, s])
            self._store(
                c, s, long_leg, *shares_unchecked(p_long, p_short), p_long,
                p_short, spread, *level_unchecked(*stats, spread, params.l),
            )
        return [(c, None) for c in cells]

    def _close(self, c: int, s: int, row: np.ndarray, reason: TradeReason) -> Trade:
        """Step 6: cell ``c``'s trade at ``s``; the cell goes flat."""
        n_long, n_short = int(self._n_long[c]), int(self._n_short[c])
        ret = return_unchecked(
            float(self._entry_long[c]), n_long, float(self._entry_short[c]),
            n_short, float(row[self._long_col[c]]), float(row[self._short_col[c]]),
        )
        self._open[c] = False
        return Trade(
            int(self._entry_s[c]), s, ret, reason, int(self._long_leg[c]),
            n_long, n_short,
        )
