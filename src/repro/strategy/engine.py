"""The per-pair strategy state machine (paper §III, steps 1–6).

:class:`DayBlock` holds one day's bar closes for the pairs a caller
trades and checks them once; :meth:`DayBlock.scan` runs one (pair,
parameter set) cell over the day and returns its trades — the paper's
return set ``R_p^{t,k}``.  The scan is event-driven: the divergence
signals are computed vectorised, the scan jumps from one entry candidate
to the next, walks each open position forward to its exit, and reduces
the trailing ``RT`` spread window only at entries.  :func:`run_pair_day`
is the one-pair call of the same scan.

:class:`PairStrategy` is the streaming form used by the MarketMiner
pipeline component: fed one interval at a time through its own entry,
exit and close helpers, it emits exactly the trades :func:`run_pair_day`
produces (an invariant under test).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.strategy.costs import ExecutionModel
from repro.strategy.params import StrategyParams
from repro.strategy.positions import (
    PairPosition,
    cash_neutral_shares,
    position_return,
    return_unchecked,
    shares_unchecked,
)
from repro.strategy.retracement import level_unchecked, retracement_level
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


def _open_position(
    s: int,
    price_s: np.ndarray,
    perf_s: np.ndarray,
    spread_rt: np.ndarray,
    params: StrategyParams,
) -> PairPosition:
    """Steps 3–5: choose legs, size the trade, set the retracement target.

    Takes interval ``s``'s own rows: the two legs' prices, their W-period
    returns and the trailing ``RT`` spreads ending at ``s``.
    """
    # Long the under-performer: the leg with the lower W-period return.
    long_leg = 0 if perf_s[0] <= perf_s[1] else 1
    short_leg = 1 - long_leg
    p_long = float(price_s[long_leg])
    p_short = float(price_s[short_leg])
    n_long, n_short = cash_neutral_shares(p_long, p_short)
    spread_s = float(spread_rt[-1])
    level = retracement_level(spread_rt, spread_s, params.l)
    return PairPosition(
        entry_s=s,
        long_leg=long_leg,
        n_long=n_long,
        n_short=n_short,
        entry_price_long=p_long,
        entry_price_short=p_short,
        entry_spread=spread_s,
        retracement_level=level.level,
        retracement_direction=level.direction,
    )


def _close_reason(
    position: PairPosition,
    s: int,
    smax: int,
    prices: np.ndarray,
    spread_s: float,
    corr_s: float,
    c_bar_s: float,
    params: StrategyParams,
) -> TradeReason | None:
    """Exit rules in priority order: retracement, HP, extensions, EOD.

    The streaming state machine's exit rule (:meth:`DayBlock.scan` applies
    the same rules in the same order); ``spread_s``, ``corr_s`` and
    ``c_bar_s`` are the interval's scalars.
    """
    if position.retracement_hit(float(spread_s)):
        return TradeReason.RETRACEMENT
    if s - position.entry_s >= params.hp:
        return TradeReason.MAX_HOLDING
    if params.stop_loss is not None:
        p_long = float(prices[s, position.long_leg])
        p_short = float(prices[s, 1 - position.long_leg])
        if position_return(position, p_long, p_short) <= -params.stop_loss:
            return TradeReason.STOP_LOSS
    if params.correlation_reversion and np.isfinite(c_bar_s):
        if c_bar_s * (1.0 - params.d) <= corr_s < c_bar_s:
            return TradeReason.CORR_REVERSION
    if s == smax - 1:
        return TradeReason.END_OF_DAY
    return None


def _close(
    position: PairPosition,
    s: int,
    prices: np.ndarray,
    reason: TradeReason,
    execution: ExecutionModel | None = None,
) -> Trade:
    p_long = float(prices[s, position.long_leg])
    p_short = float(prices[s, 1 - position.long_leg])
    ret = position_return(position, p_long, p_short)
    if execution is not None:
        ret = execution.net_return(ret, position, p_long, p_short)
    return Trade(
        entry_s=position.entry_s,
        exit_s=s,
        ret=ret,
        reason=reason,
        long_leg=position.long_leg,
        n_long=position.n_long,
        n_short=position.n_short,
    )


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


class PairStrategy:
    """Streaming form of the strategy for pipeline use.

    Feed intervals in order with :meth:`step`; each call may emit a
    completed :class:`Trade`.  Produces exactly the trades of
    :func:`run_pair_day` over the same inputs.
    """

    def __init__(
        self,
        params: StrategyParams,
        smax: int,
        execution: ExecutionModel | None = None,
        salt: int = 0,
    ):
        if smax <= 0:
            raise ValueError(f"smax must be positive, got {smax}")
        self.params = params
        self.smax = smax
        self.execution = execution
        self.salt = salt
        self._s = 0
        self._prices = np.full((smax, 2), np.nan)
        self._corr = np.full(smax, np.nan)
        self._position: PairPosition | None = None
        self._trades: list[Trade] = []

    @property
    def trades(self) -> list[Trade]:
        """Completed trades so far."""
        return list(self._trades)

    @property
    def open_position(self) -> PairPosition | None:
        return self._position

    def _record(
        self, s: int, price_0: float, price_1: float, corr_s: float
    ) -> None:
        """Check the interval is the next one and store its inputs."""
        if s != self._s:
            raise ValueError(f"expected interval {self._s}, got {s}")
        if s >= self.smax:
            raise ValueError(f"interval {s} beyond smax={self.smax}")
        # run_pair_day's check on two scalars (false for NaN).
        if not (0.0 < price_0 < math.inf and 0.0 < price_1 < math.inf):
            raise ValueError("prices must be positive and finite")
        self._prices[s] = (price_0, price_1)
        self._corr[s] = corr_s
        self._s += 1

    def step(self, s: int, price_0: float, price_1: float, corr_s: float) -> Trade | None:
        """Advance one interval; returns a trade if one closed at ``s``.

        ``corr_s`` may be NaN during warm-up (``s < M``).
        """
        self._record(s, price_0, price_1, corr_s)

        params = self.params
        if s < params.first_active_interval:
            return None

        closed: Trade | None = None
        if self._position is not None:
            reason = _close_reason(
                self._position, s, self.smax, self._prices,
                price_0 - price_1, self._corr[s], self._c_bar(s), params,
            )
            if reason is not None:
                closed = _close(
                    self._position, s, self._prices, reason, self.execution
                )
                self._trades.append(closed)
                self._position = None
                return closed

        if (
            self._position is None
            and (self.smax - 1 - s) >= params.st
            and self._signal(s)
            and (
                self.execution is None
                or self.execution.entry_fills(s, self.salt)
            )
        ):
            p = self._prices
            rt = p[s - params.rt + 1 : s + 1]
            self._position = _open_position(
                s, p[s], p[s] / p[s - params.w] - 1.0, rt[:, 0] - rt[:, 1],
                params,
            )
        return closed

    def flatten(
        self, s: int, price_0: float, price_1: float
    ) -> Trade | None:
        """Degraded-mode step: record the interval, never open, close any
        open position (reason ``DEGRADED``).

        Used by the pipeline's :class:`~repro.faults.policy.DegradePolicy`
        when the correlation input for ``s`` is stale: the correlation
        sample is recorded as NaN (a stale value is not evidence), which
        also keeps the entry signal suppressed for the next ``w``
        intervals — re-entry requires a full window of fresh data.
        """
        self._record(s, price_0, price_1, float("nan"))
        if self._position is None:
            return None
        closed = _close(
            self._position, s, self._prices, TradeReason.DEGRADED,
            self.execution,
        )
        self._trades.append(closed)
        self._position = None
        return closed

    # -- streaming forms of divergence_signals' c_bar and signal ----------

    def _c_bar(self, s: int) -> float:
        window = self._corr[s - self.params.w + 1 : s + 1]
        if np.all(np.isfinite(window)):
            return float(window.mean())
        return float("nan")

    def _diverged(self, s: int) -> bool:
        c_bar = self._c_bar(s)
        if not np.isfinite(c_bar):
            return False
        return bool(self._corr[s] < c_bar * (1.0 - self.params.d))

    def _signal(self, s: int) -> bool:
        params = self.params
        c_bar = self._c_bar(s)
        if not np.isfinite(c_bar) or not c_bar > params.a:
            return False
        if not self._diverged(s):
            return False
        if s < params.y:
            return False
        return not all(self._diverged(sigma) for sigma in range(s - params.y, s))
