"""Rolling correlation series: the one production path.

The paper evaluates every pair of its 61-stock universe — N·(N−1)/2 = 1830
rolling correlation series per (day, window, treatment).  Every engine in
the tree gets those series from :func:`batch_pair_blocks` (all of a
window's treatments at once) or :func:`batch_pair_series` (one of them),
which fill ``(n_windows, n_pairs)`` blocks in which every series — and
every Maronna fixed point — is computed exactly once:

* **Pearson** — per-symbol centred cumulative moments are computed once
  (O(T·n) instead of O(T·n²)), and only the pair cross-moments are formed
  per pair, chunked to bound peak memory;
* **Maronna / Combined** — each symbol's returns are copied into one
  contiguous row and its window medians and scales computed once; one
  call of the C fixed point then reads every pair's windows in place
  from the two symbols' rows and iterates each to its own fixed point.
  Combined is ``0.5 * (Pearson + Maronna)`` of the same window, so it is
  derived from the window's Maronna evaluation rather than running a
  second one.

:func:`corr_series` (one pair — Approach 2's per-job recomputation) and
:func:`corr_matrix_series` (Approach 1's materialised matrices) are thin
shapes over the same kernels; nothing selects between implementations and
nothing is cached between calls, so those baselines keep their cost.

Equivalence contract
--------------------
A block is **bitwise-identical** to the per-window oracle kept in
``tests/oracle.py`` (one kernel call per window) and to a per-pair
:func:`corr_series` loop:

* the Pearson block reproduces :func:`repro.corr.pearson.pearson_series`
  expression-for-expression (per-column ``.mean()``, columnwise ``cumsum``
  — strictly sequential in NumPy — and the same elementwise
  ``_corr_from_moments``);
* the robust kernel iterates each window on its own, so no window's
  result depends on which other windows share the call or in what order
  (:func:`repro.corr.maronna.maronna_fixed_point`, which is also what
  :func:`repro.corr.maronna.maronna_corr_batched` runs; asserted by the
  property tests in ``tests/test_corr_batch.py``);
* the Combined block averages the Maronna result with
  :func:`repro.corr.pearson.pearson_corr_batched` of the same sliding
  windows — what :func:`repro.corr.combined.combined_corr_batched` does —
  not with the cumsum Pearson block, which differs in the last ulp.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.bars.returns import sliding_windows
from repro.corr.maronna import MaronnaConfig, maronna_fixed_point, robust_start
from repro.corr.measures import CorrelationType, all_pairs, check_pairs
from repro.corr.pearson import (
    _corr_from_moments,
    pearson_corr_batched,
    pearson_matrix,
    pearson_series,
)
from repro.obs import Obs, resolve
from repro.util.validation import check_positive_int

#: Cap on elements materialised per Pearson cross-moment chunk.
_CHUNK_ELEMENTS = 2_000_000


class BatchWorkspace:
    """Scratch buffers reused across batch kernel calls.

    The Pearson block needs working arrays of the day's size and its
    chunk budget; an engine passes one workspace to every call of a run,
    so each role's buffer is allocated once and stays cache-warm.
    Buffers are handed out by capacity: a role's allocation serves every
    request that fits in it, whatever the shape, and is replaced only by
    a larger one.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialised C-contiguous float64 array of exactly ``shape``."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the workspace."""
        return sum(buf.nbytes for buf in self._buffers.values())


def _validate(
    returns: np.ndarray,
    m: int,
    pairs: list[tuple[int, int]] | None,
) -> tuple[np.ndarray, list[tuple[int, int]], int]:
    check_positive_int(m, "m")
    if m < 2:
        raise ValueError("window length must be >= 2")
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2:
        raise ValueError(f"need (T, n) returns, got shape {returns.shape}")
    T, n = returns.shape
    if T < m:
        raise ValueError(f"need at least {m} return rows, got {T}")
    finite = np.isfinite(returns)
    if not finite.all():
        # One NaN would poison every Pearson window (global centring and
        # cumsum) and read back as 0.0 — "uncorrelated" — so refuse it.
        row, col = np.argwhere(~finite)[0]
        raise ValueError(
            f"returns must be finite, got {returns[row, col]} at "
            f"(row {row}, column {col})"
        )
    pairs = all_pairs(n) if pairs is None else check_pairs(pairs, n)
    return returns, pairs, T - m + 1


def _out_buffer(
    out: np.ndarray | None, n_win: int, n_pairs: int
) -> np.ndarray:
    if out is None:
        return np.empty((n_win, n_pairs))
    if out.shape != (n_win, n_pairs) or out.dtype != np.float64:
        raise ValueError(
            f"out must be float64 of shape {(n_win, n_pairs)}, got "
            f"{out.dtype} {out.shape}"
        )
    return out


def _pearson_batch(
    returns: np.ndarray,
    m: int,
    pairs: list[tuple[int, int]],
    out: np.ndarray,
    ws: BatchWorkspace,
) -> int:
    """All-pairs rolling Pearson into ``out``; returns the chunk count.

    Reproduces :func:`repro.corr.pearson.pearson_series` bitwise: the same
    whole-series centring, the same cumulative-sum rolling moments (NumPy's
    ``cumsum`` is strictly sequential, so a columnwise cumsum equals each
    column's 1-D cumsum), and the same elementwise ``_corr_from_moments``.
    """
    T, n = returns.shape
    idx_i = np.asarray([i for i, _ in pairs], dtype=np.intp)
    idx_j = np.asarray([j for _, j in pairs], dtype=np.intp)

    # Per-symbol means via 1-D column reductions: ``x.mean()`` of a strided
    # column and an axis-0 reduction can differ in the last ulp, and
    # ``pearson_series`` uses the former — so the block must too (n calls,
    # negligible cost).
    mu = np.zeros(n)
    for s in sorted({int(i) for i, j in pairs} | {int(j) for i, j in pairs}):
        mu[s] = returns[:, s].mean()
    centred = ws.get("pearson.centred", (T, n))
    np.subtract(returns, mu[None, :], out=centred)

    # Rolling per-symbol sums S1 = Σx and S2 = Σx² via the cumsum identity.
    cum = ws.get("pearson.cum", (T + 1, n))
    cum[0] = 0.0
    np.cumsum(centred, axis=0, out=cum[1:])
    s1 = cum[m:] - cum[:-m]
    sq = ws.get("pearson.sq", (T, n))
    np.multiply(centred, centred, out=sq)
    cum2 = ws.get("pearson.cum2", (T + 1, n))
    cum2[0] = 0.0
    np.cumsum(sq, axis=0, out=cum2[1:])
    s2 = cum2[m:] - cum2[:-m]

    # Pair cross-moments, chunked over pairs to bound peak memory.
    n_pairs = len(pairs)
    chunk = max(1, _CHUNK_ELEMENTS // T)
    xy = ws.get("pearson.xy", (T, min(chunk, n_pairs)))
    cxy = ws.get("pearson.cxy", (T + 1, min(chunk, n_pairs)))
    n_chunks = 0
    for lo in range(0, n_pairs, chunk):
        hi = min(lo + chunk, n_pairs)
        c = hi - lo
        ii, jj = idx_i[lo:hi], idx_j[lo:hi]
        np.multiply(centred[:, ii], centred[:, jj], out=xy[:, :c])
        cxy[0, :c] = 0.0
        np.cumsum(xy[:, :c], axis=0, out=cxy[1:, :c])
        sxy = cxy[m:, :c] - cxy[: T + 1 - m, :c]
        out[:, lo:hi] = _corr_from_moments(
            s1[:, ii], s1[:, jj], s2[:, ii], s2[:, jj], sxy, m
        )
        n_chunks += 1
    return n_chunks


def _robust_blocks(
    returns: np.ndarray,
    m: int,
    outs: dict[CorrelationType, np.ndarray],
    config: MaronnaConfig | None,
    pairs: list[tuple[int, int]],
) -> tuple[int, int]:
    """One Maronna evaluation of every (window, pair) into each robust
    block of ``outs``; returns ``(window-steps, unconverged)``.

    Each symbol's returns are copied into one contiguous row and its
    window medians and scales computed once; one kernel call then reads
    every pair's windows in place from the two symbols' rows.  The
    Maronna block is its result, the Combined block its average with the
    per-window Pearson of the same windows.
    """
    if m < 3:
        raise ValueError("window length must be >= 3 for a robust fit")
    cfg = config if config is not None else MaronnaConfig()
    T, n = returns.shape
    n_win = T - m + 1
    series = np.ascontiguousarray(returns.T)
    wins = {
        s: sliding_windows(series[s], m)
        for s in sorted({s for pair in pairs for s in pair})
    }
    start = np.zeros((n, 2, n_win))
    for s, w in wins.items():
        start[s] = robust_start(w)
    maronna = outs.get(CorrelationType.MARONNA)
    if maronna is None or not maronna.flags.c_contiguous:
        maronna = np.empty((n_win, len(pairs)))
    row_steps, unconverged = maronna_fixed_point(
        series, 1, start, np.array(pairs, dtype=np.int64).reshape(-1, 2),
        m, cfg, maronna,
    )
    for ctype, out in outs.items():
        if ctype is CorrelationType.COMBINED:
            for p, (i, j) in enumerate(pairs):
                pearson = pearson_corr_batched(wins[i], wins[j])
                out[:, p] = 0.5 * (pearson + maronna[:, p])
        elif out is not maronna:
            out[...] = maronna
    return row_steps, unconverged


def _fill_blocks(
    returns: np.ndarray,
    m: int,
    outs: dict[CorrelationType, np.ndarray],
    config: MaronnaConfig | None,
    pairs: list[tuple[int, int]],
    obs: Obs | None,
    workspace: BatchWorkspace | None,
) -> None:
    """Fill each treatment's block of ``outs`` and account for the work."""
    obs = resolve(obs)
    ws = workspace if workspace is not None else BatchWorkspace()
    robust = {
        ctype: out
        for ctype, out in outs.items()
        if ctype is not CorrelationType.PEARSON
    }
    n_chunks = 0
    with obs.trace.span(
        "corr.batch", pairs=len(pairs), m=m,
        ctype="+".join(sorted(ctype.value for ctype in outs)),
    ), obs.metrics.timer("corr.batch.pair_series.seconds"):
        if CorrelationType.PEARSON in outs:
            n_chunks += _pearson_batch(
                returns, m, pairs, outs[CorrelationType.PEARSON], ws
            )
        if robust:
            row_steps, unconverged = _robust_blocks(
                returns, m, robust, config, pairs
            )
            n_chunks += 1
    counter = obs.metrics.counter
    windows = len(pairs) * (returns.shape[0] - m + 1)
    counter("corr.batch.pairs").inc(len(pairs) * len(outs))
    counter("corr.batch.windows").inc(windows * len(outs))
    counter("corr.batch.chunks").inc(n_chunks)
    if robust:
        counter("corr.batch.fixed_point_windows").inc(windows)
        counter("corr.batch.fixed_point_steps").inc(row_steps)
        counter("corr.batch.unconverged").inc(unconverged)


def batch_pair_blocks(
    returns: np.ndarray,
    m: int,
    ctypes: Iterable[CorrelationType | str],
    config: MaronnaConfig | None = None,
    pairs: list[tuple[int, int]] | None = None,
    obs: Obs | None = None,
    workspace: BatchWorkspace | None = None,
) -> dict[CorrelationType, np.ndarray]:
    """Every wanted treatment's block at one window, each series once.

    What an engine asks per (day, window): ``{treatment: block}`` with
    each block exactly :func:`batch_pair_series` of that treatment.
    Maronna and Combined at one window share a single fixed-point
    evaluation (Combined is its average with the same windows' Pearson),
    so asking for both costs one Maronna, not two.  Parameters are those
    of :func:`batch_pair_series`.
    """
    ctypes = {CorrelationType.parse(ctype) for ctype in ctypes}
    returns, pairs, n_win = _validate(returns, m, pairs)
    outs = {ctype: np.empty((n_win, len(pairs))) for ctype in ctypes}
    _fill_blocks(returns, m, outs, config, pairs, obs, workspace)
    return outs


def batch_pair_series(
    returns: np.ndarray,
    m: int,
    ctype: CorrelationType | str = CorrelationType.PEARSON,
    config: MaronnaConfig | None = None,
    pairs: list[tuple[int, int]] | None = None,
    obs: Obs | None = None,
    workspace: BatchWorkspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rolling correlation series of many pairs in one batch evaluation.

    Parameters
    ----------
    returns : ndarray, shape (T, n)
        Return rows for the whole universe (one column per symbol).
    m : int
        Rolling window length in return rows (>= 2; robust measures
        require >= 3).
    ctype : CorrelationType or str, optional
        Correlation treatment; one of the paper's three measures.
    config : MaronnaConfig, optional
        Robust-iteration tuning for the Maronna/Combined treatments.
    pairs : list of (int, int), optional
        Symbol pairs to evaluate; defaults to all ``n·(n-1)/2`` pairs.
    obs : Obs, optional
        Destination for ``corr.batch.*`` metrics and the ``corr.batch``
        span (which is what `repro top` and the flame table attribute the
        batch path's time to).  Disabled/absent obs costs nothing.
    workspace : BatchWorkspace, optional
        Scratch reused across calls; engines sweeping many (day, spec)
        cells should pass one.
    out : ndarray, shape (T - m + 1, len(pairs)), optional
        Preallocated float64 output buffer.

    Returns
    -------
    ndarray, shape (T - m + 1, len(pairs))
        Column ``p`` is exactly ``corr_series(returns[:, i_p],
        returns[:, j_p], m, ctype, config)`` — bitwise, not approximately
        (see the module docstring for why).
    """
    ctype = CorrelationType.parse(ctype)
    returns, pairs, n_win = _validate(returns, m, pairs)
    out = _out_buffer(out, n_win, len(pairs))
    _fill_blocks(returns, m, {ctype: out}, config, pairs, obs, workspace)
    return out


def corr_series(
    x,
    y,
    m: int,
    ctype: CorrelationType | str = CorrelationType.PEARSON,
    config: MaronnaConfig | None = None,
) -> np.ndarray:
    """Rolling window-``m`` correlation series of two 1-D return series.

    Output index ``k`` covers observations ``k .. k + m - 1``
    (length ``T - m + 1``), identical across measures.  This is the
    one-pair job of Approach 2: the robust measures run the same kernel
    as a one-pair block, Pearson is
    :func:`repro.corr.pearson.pearson_series` itself.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"need equal-length 1-D inputs, got {x.shape} vs {y.shape}")
    ctype = CorrelationType.parse(ctype)
    returns, pairs, n_win = _validate(np.column_stack((x, y)), m, None)
    if ctype is CorrelationType.PEARSON:
        return pearson_series(x, y, m)
    out = np.empty((n_win, 1))
    _robust_blocks(returns, m, {ctype: out}, config, pairs)
    return out[:, 0]


def corr_matrix_series(
    returns: np.ndarray,
    m: int,
    ctype: CorrelationType | str = CorrelationType.PEARSON,
    config: MaronnaConfig | None = None,
) -> np.ndarray:
    """Series of full correlation matrices over a rolling window.

    Input ``(T, n)`` returns, output ``(T - m + 1, n, n)``; matrix ``k``
    covers return rows ``k .. k + m - 1``.  This materialises what the
    paper's Approach 1 stored on disk — at full scale it is the memory
    hog the paper complains about, which is the point.

    Pearson is one matrix product per window; the robust measures are one
    :func:`batch_pair_series` block scattered into the matrices.
    """
    ctype = CorrelationType.parse(ctype)
    returns, pairs, n_win = _validate(returns, m, None)
    n = returns.shape[1]
    out = np.empty((n_win, n, n))
    if ctype is CorrelationType.PEARSON:
        for k in range(n_win):
            out[k] = pearson_matrix(returns[k : k + m])
        return out
    out[:, np.arange(n), np.arange(n)] = 1.0
    block = batch_pair_series(returns, m, ctype, config, pairs)
    idx_i = np.asarray([i for i, _ in pairs], dtype=np.intp)
    idx_j = np.asarray([j for _, j in pairs], dtype=np.intp)
    out[:, idx_i, idx_j] = block
    out[:, idx_j, idx_i] = block
    return out
