"""Rolling correlation series: the one production path.

The paper evaluates every pair of its 61-stock universe — N·(N−1)/2 = 1830
rolling correlation series per (day, window, treatment).  Every engine in
the tree gets those series from :func:`batch_pair_series`, which fills a
``(n_windows, n_pairs)`` block in a single evaluation:

* **Pearson** — per-symbol centred cumulative moments are computed once
  (O(T·n) instead of O(T·n²)), and only the pair cross-moments are formed
  per pair, chunked to bound peak memory;
* **Maronna / Combined** — every pair's windows are stacked into
  cache-resident contiguous batches and driven through the vectorised
  robust kernels, so the fixed-point iteration converges *all pairs and all
  windows simultaneously* under one convergence mask.

:func:`corr_series` (one pair — Approach 2's per-job recomputation) and
:func:`corr_matrix_series` (Approach 1's materialised matrices) are thin
shapes over the same kernels; nothing selects between implementations.

Equivalence contract
--------------------
A block is **bitwise-identical** to the per-window oracle kept in
``tests/oracle.py`` (one kernel call per window) and to a per-pair
:func:`corr_series` loop:

* the Pearson block reproduces :func:`repro.corr.pearson.pearson_series`
  expression-for-expression (per-column ``.mean()``, columnwise ``cumsum``
  — strictly sequential in NumPy — and the same elementwise
  ``_corr_from_moments``);
* the robust kernels freeze each window once converged, so every window's
  trajectory is independent of which other windows share its batch — batch
  composition and chunk boundaries cannot change any result (guaranteed by
  :func:`repro.corr.maronna.maronna_corr_batched` and asserted by the
  property tests in ``tests/test_corr_batch.py``).
"""

from __future__ import annotations

import numpy as np

from repro.bars.returns import sliding_windows
from repro.corr.maronna import MaronnaConfig
from repro.corr.measures import (
    BATCHED_KERNELS,
    CorrelationType,
    all_pairs,
    check_pairs,
)
from repro.corr.pearson import _corr_from_moments, pearson_matrix, pearson_series
from repro.obs import NULL_METRIC, Obs
from repro.util.validation import check_positive_int

#: Cap on elements materialised per Pearson cross-moment chunk.
_CHUNK_ELEMENTS = 2_000_000

#: Cap on elements per robust-kernel batch.  The fixed-point iteration
#: touches ~10 temporaries of the batch's size every pass, so the batch
#: must stay cache-resident: 64k elements (512 KiB per buffer) measured
#: ~1.5x faster than megabyte-scale batches on the paper-day workload.
_ROBUST_CHUNK_ELEMENTS = 65_536


class BatchWorkspace:
    """Preallocated scratch buffers reused across batch kernel calls.

    The batch kernels allocate working arrays proportional to the chunk
    budget; an engine sweeping many (day, spec) cells passes one workspace
    so those buffers are allocated once and stay cache-warm instead of
    being re-malloc'd per call.  Buffers are keyed by role and reallocated
    only when a call needs a different shape.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialised float64 buffer of exactly ``shape``."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape)
            self._buffers[name] = buf
        return buf

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the workspace."""
        return sum(buf.nbytes for buf in self._buffers.values())


def _validate(
    returns: np.ndarray,
    m: int,
    ctype: CorrelationType | str,
    pairs: list[tuple[int, int]] | None,
) -> tuple[np.ndarray, CorrelationType, list[tuple[int, int]], int]:
    ctype = CorrelationType.parse(ctype)
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
    return returns, ctype, pairs, T - m + 1


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


def _robust_batch(
    returns: np.ndarray,
    m: int,
    ctype: CorrelationType,
    config: MaronnaConfig | None,
    pairs: list[tuple[int, int]],
    out: np.ndarray,
    ws: BatchWorkspace,
) -> int:
    """All-pairs robust/blended series into ``out``; returns chunk count.

    Stacks every pair's sliding windows into contiguous ``(rows, m)``
    batches spanning pair boundaries and drives them through the batched
    kernels: one convergence mask over all pairs and windows at once.
    Per-window convergence freezing makes each row's result independent of
    the batch composition, so the flat-row chunking below cannot change
    any value.
    """
    kernel = BATCHED_KERNELS[ctype]
    n_win = out.shape[0]
    n_pairs = len(pairs)
    wins = [
        (sliding_windows(returns[:, i], m), sliding_windows(returns[:, j], m))
        for i, j in pairs
    ]
    total_rows = n_pairs * n_win
    chunk_rows = max(1, min(_ROBUST_CHUNK_ELEMENTS // m, total_rows))
    bufx = ws.get("robust.bufx", (chunk_rows, m))
    bufy = ws.get("robust.bufy", (chunk_rows, m))
    n_chunks = 0
    for lo in range(0, total_rows, chunk_rows):
        hi = min(lo + chunk_rows, total_rows)
        # The (buffer row, pair, first window, row count) runs of this chunk.
        runs = []
        pos = lo
        while pos < hi:
            p, w = divmod(pos, n_win)
            take = min(hi - pos, n_win - w)
            runs.append((pos - lo, p, w, take))
            pos += take
        for r, p, w, take in runs:  # gather window slices into the stack
            bufx[r : r + take] = wins[p][0][w : w + take]
            bufy[r : r + take] = wins[p][1][w : w + take]
        vals = kernel(bufx[: hi - lo], bufy[: hi - lo], config)
        for r, p, w, take in runs:  # scatter back to (window, pair)
            out[w : w + take, p] = vals[r : r + take]
        n_chunks += 1
    return n_chunks


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
        require >= 3, enforced by the kernels).
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
        Preallocated scratch reused across calls; engines sweeping many
        (day, spec) cells should pass one.
    out : ndarray, shape (T - m + 1, len(pairs)), optional
        Preallocated float64 output buffer.

    Returns
    -------
    ndarray, shape (T - m + 1, len(pairs))
        Column ``p`` is exactly ``corr_series(returns[:, i_p],
        returns[:, j_p], m, ctype, config)`` — bitwise, not approximately
        (see the module docstring for why).
    """
    returns, ctype, pairs, n_win = _validate(returns, m, ctype, pairs)
    out = _out_buffer(out, n_win, len(pairs))
    ws = workspace if workspace is not None else BatchWorkspace()
    record = obs is not None and obs.enabled
    span = (
        obs.trace.span(
            "corr.batch", pairs=len(pairs), m=m, ctype=ctype.value
        )
        if record
        else NULL_METRIC
    )
    timer = (
        obs.metrics.timer("corr.batch.pair_series.seconds")
        if record
        else NULL_METRIC
    )
    with span, timer:
        if ctype is CorrelationType.PEARSON:
            n_chunks = _pearson_batch(returns, m, pairs, out, ws)
        else:
            n_chunks = _robust_batch(
                returns, m, ctype, config, pairs, out, ws
            )
    if record:
        obs.metrics.counter("corr.batch.pairs").inc(len(pairs))
        obs.metrics.counter("corr.batch.windows").inc(len(pairs) * n_win)
        obs.metrics.counter("corr.batch.chunks").inc(n_chunks)
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
    one-pair job of Approach 2: the robust measures run the same chunked
    kernel loop as a one-pair block, Pearson is
    :func:`repro.corr.pearson.pearson_series` itself.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"need equal-length 1-D inputs, got {x.shape} vs {y.shape}")
    returns, ctype, pairs, n_win = _validate(
        np.column_stack((x, y)), m, ctype, None
    )
    if ctype is CorrelationType.PEARSON:
        return pearson_series(x, y, m)
    out = np.empty((n_win, 1))
    _robust_batch(returns, m, ctype, config, pairs, out, BatchWorkspace())
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
    returns, ctype, pairs, n_win = _validate(returns, m, ctype, None)
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
