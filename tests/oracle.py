"""Frozen reference implementations the production kernels are tested against.

The per-window correlation oracle comes first; :class:`PerQuoteBarAccumulator`
(the bar accumulator as it stood before the one-kernel form) and
:func:`frozen_run_pair_day` (the strategy's per-interval loop as it stood
before the event-driven day-block scan) are at the end.

A reference implementation, deliberately slow and obvious: for the robust
measures one kernel call per window (batch size 1, i.e. the genuine scalar
fixed-point loop); per-window convergence freezing makes the production
blocks of :mod:`repro.corr.batch` bitwise-identical to it.  Pearson has no
per-window scalar form in the tree (the rolling cumsum identity *is* the
definition), so it delegates to :func:`repro.corr.pearson.pearson_series`.
"""

import numpy as np

from repro.bars.accumulator import OHLC_DTYPE
from repro.bars.returns import sliding_windows
from repro.corr.combined import combined_corr_batched
from repro.corr.maronna import MaronnaConfig, maronna_corr_batched
from repro.corr.measures import CorrelationType, all_pairs
from repro.corr.pearson import pearson_series
from repro.strategy.engine import _close, _close_reason, _open_position
from repro.strategy.positions import PairPosition
from repro.strategy.signals import divergence_signals


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
