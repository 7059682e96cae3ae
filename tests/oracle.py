"""Frozen reference implementations the production kernels are tested against.

The per-window correlation oracle comes first, then the Maronna
estimator's frozen definition (:func:`frozen_maronna_corr_batched`) and
the vectorised NumPy step production ran before its per-window C loop
(:func:`frozen_maronna_fixed_point`); :class:`PerQuoteBarAccumulator`
(the bar accumulator as it stood before the one-kernel form), the streaming
strategy :class:`PairStrategy` with its entry, exit and close helpers (one
Python object per (pair, parameter set) cell, as the pipeline stepped them
before :class:`~repro.strategy.engine.CellBank`), :class:`PerCellStepLoop`
(the pipeline component's loop over those objects) and
:func:`frozen_run_pair_day` (the strategy's per-interval loop as it stood
before the event-driven day-block scan) follow; the cleaning filter
:class:`TcpLikeFilter` (one Python object per symbol, updated once per
quote, as every path cleaned before :class:`~repro.clean.filters.FilterBank`
and its C loop) and :func:`frozen_filter_quotes` (the batch loop over those
objects) are at the very end.

A reference implementation, deliberately slow and obvious: for the robust
measures one kernel call per window (batch size 1, i.e. the genuine scalar
fixed-point loop); per-window convergence freezing makes the production
blocks of :mod:`repro.corr.batch` bitwise-identical to it.  Pearson has no
per-window scalar form in the tree (the rolling cumsum identity *is* the
definition), so it delegates to :func:`repro.corr.pearson.pearson_series`.
"""

import math

import numpy as np

from repro.bars.accumulator import OHLC_DTYPE
from repro.bars.returns import sliding_windows
from repro.corr.combined import combined_corr_batched
from repro.corr.maronna import MaronnaConfig, maronna_corr_batched
from repro.corr.measures import CorrelationType, all_pairs
from repro.corr.pearson import pearson_series
from repro.faults.policy import StaleCorr
from repro.strategy.costs import ExecutionModel
from repro.strategy.engine import Trade, TradeReason
from repro.strategy.params import StrategyParams
from repro.strategy.portfolio import OrderRequest
from repro.strategy.positions import (
    PairPosition,
    cash_neutral_shares,
    position_return,
)
from repro.strategy.retracement import retracement_level
from repro.strategy.signals import divergence_signals
from repro.util.validation import check_positive, check_positive_int


def reference_pair_series(returns, m, ctype="pearson", config=None, pairs=None):
    """``(T - m + 1, len(pairs))`` rolling correlations, one window at a time."""
    returns = np.asarray(returns, dtype=float)
    ctype = CorrelationType.parse(ctype)
    if pairs is None:
        pairs = all_pairs(returns.shape[1])
    n_win = returns.shape[0] - m + 1
    out = np.empty((n_win, len(pairs)))
    if ctype is CorrelationType.PEARSON:
        for p, (i, j) in enumerate(pairs):
            out[:, p] = pearson_series(returns[:, i], returns[:, j], m)
        return out
    kernel = (
        maronna_corr_batched
        if ctype is CorrelationType.MARONNA
        else combined_corr_batched
    )
    for p, (i, j) in enumerate(pairs):
        xw = sliding_windows(returns[:, i], m)
        yw = sliding_windows(returns[:, j], m)
        for w in range(n_win):
            out[w, p] = kernel(xw[w : w + 1], yw[w : w + 1], config)[0]
    return out


_EPS = 1e-18


def _mad(x: np.ndarray, med: np.ndarray) -> np.ndarray:
    """Median absolute deviation per row of (B, M) around per-row medians."""
    return np.median(np.abs(x - med[:, None]), axis=1)


def frozen_maronna_corr_batched(
    xw: np.ndarray, yw: np.ndarray, config: MaronnaConfig | None = None
) -> np.ndarray:
    """The Maronna estimator's frozen definition: the body of
    ``maronna_corr_batched`` as it stood before the allocation-free kernel
    (commit e4737b1), copied verbatim.  The production kernel must equal
    it bit for bit; a change that moves a bit is a new estimator and needs
    its own oracle, not an edit here."""
    cfg = config if config is not None else MaronnaConfig()
    x = np.asarray(xw, dtype=float)
    y = np.asarray(yw, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"need matching (B, M) batches, got {x.shape} vs {y.shape}")
    B, m = x.shape
    if m < 3:
        raise ValueError("window length must be >= 3 for a robust fit")

    # -- robust initialisation -------------------------------------------
    tx = np.median(x, axis=1)
    ty = np.median(y, axis=1)
    sx = _mad(x, tx) * 1.4826  # normal-consistent MAD
    sy = _mad(y, ty) * 1.4826
    # MAD can be zero for heavily discretised data; fall back to std.
    sx = np.where(sx > _EPS, sx, x.std(axis=1))
    sy = np.where(sy > _EPS, sy, y.std(axis=1))
    degenerate = (sx <= _EPS) | (sy <= _EPS)
    sx = np.where(degenerate, 1.0, sx)
    sy = np.where(degenerate, 1.0, sy)

    # Quadrant correlation as the initial shape.
    q = np.mean(np.sign(x - tx[:, None]) * np.sign(y - ty[:, None]), axis=1)
    rho0 = np.clip(np.sin(0.5 * np.pi * q), -0.98, 0.98)

    a = sx * sx  # V[0,0]
    c = sy * sy  # V[1,1]
    b = rho0 * sx * sy  # V[0,1]

    k2 = cfg.k * cfg.k
    # Per-window freezing: once a window's scatter has converged it stops
    # updating, so each window's trajectory — and therefore its result —
    # is independent of which other windows share the batch.
    active = ~degenerate
    for _ in range(cfg.max_iter):
        if not np.any(active):
            break
        dx = x[active] - tx[active, None]
        dy = y[active] - ty[active, None]
        aa, bb, cc = a[active], b[active], c[active]
        det = np.maximum(aa * cc - bb * bb, _EPS)
        # Mahalanobis distances under the current 2x2 scatter.
        d2 = (
            cc[:, None] * dx * dx - 2.0 * bb[:, None] * dx * dy + aa[:, None] * dy * dy
        ) / det[:, None]
        d2 = np.maximum(d2, 0.0)
        d = np.sqrt(d2)
        with np.errstate(divide="ignore"):
            u1 = np.minimum(1.0, cfg.k / np.maximum(d, _EPS))
        u2 = np.minimum(1.0, k2 / np.maximum(d2, _EPS))

        w1_sum = u1.sum(axis=1)
        tx_new = (u1 * x[active]).sum(axis=1) / w1_sum
        ty_new = (u1 * y[active]).sum(axis=1) / w1_sum

        dx = x[active] - tx_new[:, None]
        dy = y[active] - ty_new[:, None]
        a_new = (u2 * dx * dx).mean(axis=1)
        c_new = (u2 * dy * dy).mean(axis=1)
        b_new = (u2 * dx * dy).mean(axis=1)

        scale = np.maximum(np.maximum(aa, cc), _EPS)
        delta = np.maximum(
            np.maximum(np.abs(a_new - aa), np.abs(c_new - cc)), np.abs(b_new - bb)
        )
        tx[active], ty[active] = tx_new, ty_new
        a[active], b[active], c[active] = a_new, b_new, c_new
        still = delta > cfg.tol * scale
        idx = np.nonzero(active)[0]
        active[idx[~still]] = False

    denom_sq = a * c
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(
            denom_sq > _EPS, b / np.sqrt(np.maximum(denom_sq, _EPS)), 0.0
        )
    corr = np.where(degenerate, 0.0, corr)
    return np.clip(corr, -1.0, 1.0)


#: Chunk-sized work buffers one fixed point needs: the two window batches
#: and four scratch arrays.
N_WORK_BUFFERS = 6

#: The working copy of a batch is recompacted once at most this share of
#: its rows is still iterating.  Until then a converged row is evaluated
#: along with the rest but its state is never written, so when a window
#: freezes — and every bit of its result — does not depend on the value.
_COMPACT_LIVE_SHARE = 0.75


def frozen_maronna_fixed_point(
    work: np.ndarray,
    n: int,
    tx: np.ndarray,
    ty: np.ndarray,
    sx: np.ndarray,
    sy: np.ndarray,
    cfg: MaronnaConfig,
) -> tuple[np.ndarray, int, int]:
    """Iterate ``n`` windows from their robust start to the fixed point.

    The vectorised NumPy Maronna step as production ran it before the
    per-window C loop (``repro/corr/maronna_step.c``), copied verbatim:
    the kernel must equal it bit for bit, correlations, ``row_steps`` and
    ``unconverged`` alike.  ``work`` is a
    ``(N_WORK_BUFFERS, capacity, M)`` float64 array whose first two planes
    hold the x and y windows in their first ``n`` rows; all six planes are
    overwritten, and so are ``tx``/``ty`` (per-row medians).  ``sx``/``sy``
    are the per-row scales of :func:`robust_start`.  Every array pass of a
    step writes into ``work``, so a step allocates nothing of batch size.

    Returns ``(correlations, row_steps, unconverged)``: shape ``(n,)`` in
    ``[-1, 1]``, the number of (window, step) updates made, and how many
    windows were still moving when ``cfg.max_iter`` stopped them.
    """
    m = work.shape[2]
    x, y, s1, s2, s3, s4 = (work[i, :n] for i in range(N_WORK_BUFFERS))
    degenerate = (sx <= _EPS) | (sy <= _EPS)
    sx = np.where(degenerate, 1.0, sx)
    sy = np.where(degenerate, 1.0, sy)

    # Quadrant correlation as the initial shape.
    np.sign(np.subtract(x, tx[:, None], out=s1), out=s1)
    np.sign(np.subtract(y, ty[:, None], out=s2), out=s2)
    q = np.add.reduce(np.multiply(s1, s2, out=s1), axis=1) / m
    rho0 = np.clip(np.sin(0.5 * np.pi * q), -0.98, 0.98)

    # The scatter V: a = V[0,0], b = V[0,1], c = V[1,1].  ``final`` keeps
    # one entry per window; (a, b, c) are it until the first compaction
    # and the working rows' copies afterwards, ``rows`` mapping them back.
    final = a, b, c = sx * sx, rho0 * sx * sy, sy * sy
    rows = None

    k, k2, tol = cfg.k, cfg.k * cfg.k, cfg.tol
    # Per-window freezing: once a window's scatter has converged it stops
    # updating, so each window's trajectory — and therefore its result —
    # is independent of which other windows share the batch.
    live = ~degenerate
    n_live = int(np.count_nonzero(live))
    vec = np.empty((9, n))  # the step's per-row temporaries
    still = np.empty(n, dtype=bool)
    row_steps = 0

    def settle() -> None:
        """Write the working rows' scatter back to their windows."""
        if rows is not None:
            for whole, part in zip(final, (a, b, c)):
                whole[rows] = part

    for _ in range(cfg.max_iter):
        if n_live == 0:
            break
        if n_live <= _COMPACT_LIVE_SHARE * live.size:
            settle()
            keep = np.nonzero(live)[0]
            rows = keep if rows is None else rows[keep]
            np.take(x, keep, axis=0, out=s1[:n_live], mode="clip")
            np.take(y, keep, axis=0, out=s2[:n_live], mode="clip")
            x, y, s1, s2, s3, s4 = (
                buf[:n_live] for buf in (s1, s2, x, y, s3, s4)
            )
            tx, ty, a, b, c = (v[keep] for v in (tx, ty, a, b, c))
            vec, still = vec[:, :n_live], still[:n_live]
            live = np.ones(n_live, dtype=bool)
        det, b2, w1, tx_new, ty_new, a_new, b_new, c_new, t = vec

        # Mahalanobis distances under the current 2x2 scatter.
        np.subtract(
            np.multiply(a, c, out=det), np.multiply(b, b, out=t), out=det
        )
        np.maximum(det, _EPS, out=det)
        np.multiply(2.0, b, out=b2)
        np.subtract(x, tx[:, None], out=s1)  # dx
        np.subtract(y, ty[:, None], out=s2)  # dy
        np.multiply(np.multiply(c[:, None], s1, out=s3), s1, out=s3)
        np.multiply(np.multiply(b2[:, None], s1, out=s4), s2, out=s4)
        np.subtract(s3, s4, out=s3)
        np.multiply(np.multiply(a[:, None], s2, out=s4), s2, out=s4)
        np.add(s3, s4, out=s3)
        np.divide(s3, det[:, None], out=s3)
        np.maximum(s3, 0.0, out=s3)  # d2
        np.sqrt(s3, out=s4)  # d
        # Huber weights: s4 becomes u1(d), s3 becomes u2(d2).
        np.divide(k, np.maximum(s4, _EPS, out=s4), out=s4)
        np.minimum(1.0, s4, out=s4)
        np.divide(k2, np.maximum(s3, _EPS, out=s3), out=s3)
        np.minimum(1.0, s3, out=s3)

        np.add.reduce(s4, axis=1, out=w1)
        np.add.reduce(np.multiply(s4, x, out=s1), axis=1, out=tx_new)
        np.divide(tx_new, w1, out=tx_new)
        np.add.reduce(np.multiply(s4, y, out=s1), axis=1, out=ty_new)
        np.divide(ty_new, w1, out=ty_new)

        np.subtract(x, tx_new[:, None], out=s1)  # dx
        np.subtract(y, ty_new[:, None], out=s2)  # dy
        np.multiply(s3, s1, out=s4)  # u2·dx, shared by a and b
        np.add.reduce(np.multiply(s4, s1, out=s1), axis=1, out=a_new)
        np.divide(a_new, m, out=a_new)
        np.add.reduce(np.multiply(s4, s2, out=s1), axis=1, out=b_new)
        np.divide(b_new, m, out=b_new)
        np.multiply(np.multiply(s3, s2, out=s4), s2, out=s4)
        np.add.reduce(s4, axis=1, out=c_new)
        np.divide(c_new, m, out=c_new)

        # still = delta > tol * scale, before the state moves.
        np.maximum(np.maximum(a, c, out=t), _EPS, out=t)
        np.multiply(tol, t, out=t)
        np.abs(np.subtract(a_new, a, out=det), out=det)
        np.abs(np.subtract(c_new, c, out=b2), out=b2)
        np.maximum(det, b2, out=det)
        np.abs(np.subtract(b_new, b, out=b2), out=b2)
        np.greater(np.maximum(det, b2, out=det), t, out=still)
        for state, new in (
            (tx, tx_new), (ty, ty_new), (a, a_new), (b, b_new), (c, c_new)
        ):
            np.copyto(state, new, where=live)
        np.logical_and(live, still, out=live)
        row_steps += n_live
        n_live = int(np.count_nonzero(live))

    settle()
    a, b, c = final
    denom_sq = a * c
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(
            denom_sq > _EPS, b / np.sqrt(np.maximum(denom_sq, _EPS)), 0.0
        )
    corr = np.where(degenerate, 0.0, corr)
    return np.clip(corr, -1.0, 1.0), row_steps, n_live


class PerQuoteBarAccumulator:
    """The streaming bar row's frozen definition: the arithmetic of the
    per-quote ``add_quote`` / ``close_through`` class as it stood at commit
    43bb263 (its interval bookkeeping and input checks, which the tests
    exercise on the production class, left out).
    ``StreamingBarAccumulator.close_interval`` must equal it bit for bit."""

    def __init__(self, n_symbols: int):
        self.n_symbols = n_symbols
        self._last_close = np.full(n_symbols, np.nan)
        self._reset_working()

    def _reset_working(self) -> None:
        n = self.n_symbols
        self._open = np.full(n, np.nan)
        self._high = np.full(n, -np.inf)
        self._low = np.full(n, np.inf)
        self._close = np.full(n, np.nan)
        self._count = np.zeros(n, dtype=np.int32)

    def add_quote(self, symbol: int, bid: float, ask: float) -> None:
        bam = 0.5 * (bid + ask)
        if self._count[symbol] == 0:
            self._open[symbol] = bam
        self._high[symbol] = max(self._high[symbol], bam)
        self._low[symbol] = min(self._low[symbol], bam)
        self._close[symbol] = bam
        self._count[symbol] += 1

    def close(self) -> np.ndarray:
        row = np.zeros(self.n_symbols, dtype=OHLC_DTYPE)
        has = self._count > 0
        row["open"] = np.where(has, self._open, self._last_close)
        row["high"] = np.where(has, self._high, self._last_close)
        row["low"] = np.where(has, self._low, self._last_close)
        row["close"] = np.where(has, self._close, self._last_close)
        row["count"] = self._count
        self._last_close = row["close"].copy()
        self._reset_working()
        return row

    def close_interval(self, records: np.ndarray) -> np.ndarray:
        """One interval the parent's way: a Python call per quote."""
        for rec in records:
            self.add_quote(
                int(rec["symbol"]), float(rec["bid"]), float(rec["ask"])
            )
        return self.close()


# -- the streaming strategy, frozen -------------------------------------------
# ``PairStrategy`` and its three helpers as they stood in
# ``repro.strategy.engine`` before the pipeline moved onto ``CellBank``,
# copied verbatim.  ``frozen_run_pair_day`` shares the helpers.


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


def frozen_run_pair_day(prices, corr, params, execution=None, salt=0):
    """The strategy's frozen definition: the body of ``run_pair_day`` as
    it stood at commit ee784eb, one Python step per interval, with its
    checks.  It shares the entry, exit and close helpers of the streaming
    ``PairStrategy``.  ``DayBlock.scan`` (and so ``run_pair_day`` and
    ``run_cells``) must equal it trade for trade, bit for bit."""
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 2 or prices.shape[1] != 2:
        raise ValueError(f"prices must be (smax, 2), got {prices.shape}")
    smax = prices.shape[0]
    corr = np.asarray(corr, dtype=float)
    if corr.shape != (smax,):
        raise ValueError(f"corr must be ({smax},), got {corr.shape}")
    if np.any(prices <= 0) or np.any(~np.isfinite(prices)):
        raise ValueError("prices must be positive and finite")

    start = params.first_active_interval
    if start >= smax:
        return []

    signal, c_bar = divergence_signals(corr, params.a, params.d, params.w, params.y)
    spread = prices[:, 0] - prices[:, 1]
    # W-period simple returns of each leg, aligned to interval index.
    perf = np.full((smax, 2), np.nan)
    perf[params.w :] = prices[params.w :] / prices[: -params.w] - 1.0

    trades = []
    position: PairPosition | None = None
    for s in range(start, smax):
        if position is not None:
            reason = _close_reason(
                position, s, smax, prices, spread[s], corr[s], c_bar[s],
                params,
            )
            if reason is not None:
                trades.append(_close(position, s, prices, reason, execution))
                position = None
                continue  # no same-interval re-entry
        if (
            position is None
            and signal[s]
            and (smax - 1 - s) >= params.st
            and (execution is None or execution.entry_fills(s, salt))
        ):
            position = _open_position(
                s, prices[s], perf[s], spread[s - params.rt + 1 : s + 1],
                params,
            )
    return trades


class PerCellStepLoop:
    """The Figure-1 strategy component's interval loop as it stood before
    :class:`~repro.strategy.engine.CellBank`: one :class:`PairStrategy` per
    (pair, parameter set) cell, stepped pair-major, emitting through
    ``ctx`` what ``PairTradingComponent._step_all`` emitted (its body and
    order helpers copied verbatim; the component's interval bookkeeping
    — NaN head, stream alignment — is left to the caller).  Build it at
    the head interval: ``s_local`` counts from there."""

    def __init__(self, pairs, grid, local_smax, degrade=None, param_indices=None):
        self.pairs = [tuple(sorted(p)) for p in pairs]
        self.grid = list(grid)
        self.degrade = degrade
        self.param_indices = param_indices
        self._strategies = {}
        self._trades = {}
        self._orders_emitted = 0
        for pair in self.pairs:
            for k in range(len(self.grid)):
                self._strategies[(pair, k)] = PairStrategy(self.grid[k], local_smax)
                self._trades[(pair, k)] = []

    def step_all(self, ctx, s, s_local, closes, corr) -> None:
        """One interval; ``corr`` as the component receives it (a matrix,
        a dict of pair blocks, a ``StaleCorr`` or None)."""
        stale = isinstance(corr, StaleCorr)
        flatten = stale and self.degrade is not None and self.degrade.flatten
        for pair in self.pairs:
            i, j = pair
            if corr is None or stale:
                # Degraded (or warm-up) interval: NaN correlation blocks
                # the entry signal by construction.
                c = math.nan
            elif isinstance(corr, dict):
                c = float(corr[pair])
            else:
                c = float(corr[i, j])
            for k in range(len(self.grid)):
                strat = self._strategies[(pair, k)]
                before = strat.open_position
                if flatten:
                    trade = strat.flatten(
                        s_local, float(closes[i]), float(closes[j])
                    )
                else:
                    trade = strat.step(
                        s_local, float(closes[i]), float(closes[j]), c
                    )
                after = strat.open_position
                # Emit under the study-global parameter index so order
                # sinks shared by several spec strategies never collide.
                k_out = self.param_indices[k] if self.param_indices else k
                if trade is not None:
                    self._trades[(pair, k)].append(trade)
                    ctx.emit("trades", (pair, k_out, trade))
                    self._emit_close_orders(ctx, s, pair, k_out, trade, closes)
                if before is None and after is not None:
                    self._emit_open_orders(ctx, s, pair, k_out, after, closes)

    def _emit_open_orders(self, ctx, s, pair, k, position, closes) -> None:
        i, j = pair
        long_sym = pair[position.long_leg]
        short_sym = pair[1 - position.long_leg]
        legs = (
            OrderRequest(
                s=s, symbol=long_sym, shares=position.n_long,
                price=float(closes[long_sym]), pair=pair, param_index=k,
            ),
            OrderRequest(
                s=s, symbol=short_sym, shares=-position.n_short,
                price=float(closes[short_sym]), pair=pair, param_index=k,
            ),
        )
        ctx.emit("orders", ("entry", legs))
        self._orders_emitted += 2

    def _emit_close_orders(self, ctx, s, pair, k, trade, closes) -> None:
        long_sym = pair[trade.long_leg]
        short_sym = pair[1 - trade.long_leg]
        legs = (
            OrderRequest(
                s=s, symbol=long_sym, shares=-trade.n_long,
                price=float(closes[long_sym]), pair=pair, param_index=k,
            ),
            OrderRequest(
                s=s, symbol=short_sym, shares=trade.n_short,
                price=float(closes[short_sym]), pair=pair, param_index=k,
            ),
        )
        ctx.emit("orders", ("exit", legs))
        self._orders_emitted += 2


class TcpLikeFilter:
    """Streaming accept/reject filter for one price series.

    Parameters
    ----------
    alpha:
        EWMA gain for the smoothed price (TCP uses 1/8 for SRTT).
    beta:
        EWMA gain for the smoothed absolute deviation (TCP uses 1/4).
    k:
        Rejection threshold in smoothed deviations ("a few standard
        deviations"; default 6 — tuned so genuine diffusion under the
        EWMA lag never trips the filter while decimal slips, test quotes
        and far-out limit orders, all ≫ the deviation floor, always do).
    warmup:
        Number of initial ticks accepted unconditionally while the
        estimates form.
    min_dev_frac:
        Floor on the deviation as a fraction of the smoothed price, so a
        quiet stretch cannot shrink the acceptance band to zero width.
    """

    def __init__(
        self,
        alpha: float = 0.125,
        beta: float = 0.25,
        k: float = 6.0,
        warmup: int = 20,
        min_dev_frac: float = 1.0e-3,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        check_positive(k, "k")
        check_positive_int(warmup, "warmup")
        check_positive(min_dev_frac, "min_dev_frac")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.k = float(k)
        self.warmup = int(warmup)
        self.min_dev_frac = float(min_dev_frac)
        self._avg: float | None = None
        self._dev = 0.0
        self._seen = 0

    @property
    def average(self) -> float | None:
        """Current smoothed price (None before the first tick)."""
        return self._avg

    @property
    def deviation(self) -> float:
        """Current smoothed absolute deviation."""
        return self._dev

    def update(self, x: float) -> bool:
        """Feed one price; return True if accepted.

        Accepted prices update the moving estimates; rejected ones do not.
        """
        if not np.isfinite(x) or x <= 0.0:
            return False
        if self._avg is None:
            self._avg = x
            self._dev = abs(x) * self.min_dev_frac
            self._seen = 1
            return True

        in_warmup = self._seen < self.warmup
        band = self.k * max(self._dev, self._avg * self.min_dev_frac)
        if not in_warmup and abs(x - self._avg) > band:
            return False

        self._dev = (1.0 - self.beta) * self._dev + self.beta * abs(x - self._avg)
        self._avg = (1.0 - self.alpha) * self._avg + self.alpha * x
        self._seen += 1
        return True


def frozen_filter_quotes(records, filters):
    """The keep mask of ``records`` through one :class:`TcpLikeFilter` per
    symbol, quote by quote: crossed quotes (bid >= ask) are dropped and
    every other bid–ask midpoint meets its symbol's filter."""
    crossed = records["bid"] >= records["ask"]
    bam = 0.5 * (records["bid"] + records["ask"])
    symbols = records["symbol"]
    keep = np.zeros(records.size, dtype=bool)
    for i in range(records.size):
        if not crossed[i]:
            keep[i] = filters[symbols[i]].update(float(bam[i]))
    return keep
