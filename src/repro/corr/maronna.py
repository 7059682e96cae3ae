"""Maronna robust M-estimator of bivariate correlation (Maronna 1976).

The estimator solves the fixed-point equations

    t = Σ u1(d_i) x_i / Σ u1(d_i)
    V = (1/M) Σ u2(d_i²) (x_i - t)(x_i - t)ᵀ
    d_i² = (x_i - t)ᵀ V⁻¹ (x_i - t)

with Huber weight functions ``u1(d) = min(1, k/d)`` and
``u2(d²) = u1(d)²``: observations inside the radius ``k`` get full weight,
outliers are down-weighted by their squared Mahalanobis distance.  The
correlation is read off the converged scatter ``V`` as
``V01 / sqrt(V00 · V11)`` — any consistency constant on ``V`` cancels, so
none is applied.

The computational story matches the paper's: the estimator is iterative and
far more expensive than Pearson, which is why MarketMiner computes robust
matrices with a parallel algorithm (Chilson et al. 2006).  The batched
kernel here (:func:`maronna_corr_batched`) iterates all windows of a block
simultaneously in vectorised NumPy and is the unit the parallel engine
distributes.

Iteration starts from coordinate medians, MAD scales and the quadrant
correlation, and stops when the scatter stabilises.  Windows with zero
robust scale (constant series) yield correlation 0.0, consistent with
:mod:`repro.corr.pearson`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive, check_positive_int

#: Huber radius: 95% chi-square quantile for 2 dimensions, the standard
#: tuning for bivariate Huber scatter.  With 2 degrees of freedom the
#: chi-square quantile has the closed form ``-2 log(1 - p)``; this is
#: bitwise ``sqrt(scipy.stats.chi2.ppf(0.95, 2))``.
DEFAULT_HUBER_K: float = math.sqrt(-2.0 * math.log1p(-0.95))

_EPS = 1e-18


@dataclass(frozen=True, slots=True)
class MaronnaConfig:
    """Tuning of the Maronna fixed-point iteration."""

    k: float = DEFAULT_HUBER_K
    max_iter: int = 60
    tol: float = 1e-8

    def __post_init__(self) -> None:
        check_positive(self.k, "k")
        check_positive_int(self.max_iter, "max_iter")
        check_positive(self.tol, "tol")


def maronna_weights(d: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Huber weight pair ``(u1, u2)`` at Mahalanobis distances ``d``."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be >= 0")
    with np.errstate(divide="ignore"):
        u1 = np.minimum(1.0, k / np.maximum(d, _EPS))
    return u1, u1 * u1


#: Chunk-sized work buffers one fixed point needs: the two window batches
#: and four scratch arrays.
N_WORK_BUFFERS = 6

#: The working copy of a batch is recompacted once at most this share of
#: its rows is still iterating.  Until then a converged row is evaluated
#: along with the rest but its state is never written, so when a window
#: freezes — and every bit of its result — does not depend on the value.
_COMPACT_LIVE_SHARE = 0.75


def robust_start(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Robust location and scale per row of one series' ``(B, M)`` windows.

    Location is the median, scale the normal-consistent MAD — or, on the
    rows whose MAD is zero (heavily discretised data), the standard
    deviation.  Both are properties of one series' windows, so a block
    computes them once per symbol rather than once per pair.
    """
    med = np.median(w, axis=1)
    scale = np.median(np.abs(w - med[:, None]), axis=1) * 1.4826
    flat = np.nonzero(~(scale > _EPS))[0]
    if flat.size:
        scale[flat] = w[flat].std(axis=1)
    return med, scale


def maronna_fixed_point(
    work: np.ndarray,
    n: int,
    tx: np.ndarray,
    ty: np.ndarray,
    sx: np.ndarray,
    sy: np.ndarray,
    cfg: MaronnaConfig,
) -> tuple[np.ndarray, int, int]:
    """Iterate ``n`` windows from their robust start to the fixed point.

    The only implementation of the Maronna step.  ``work`` is a
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


def maronna_corr_batched(
    xw: np.ndarray, yw: np.ndarray, config: MaronnaConfig | None = None
) -> np.ndarray:
    """Maronna correlation per row of two ``(B, M)`` window batches.

    All windows iterate simultaneously; convergence is per-window (the
    iteration stops when every window's scatter has stabilised or
    ``max_iter`` is hit).  Returns shape ``(B,)`` in ``[-1, 1]``.
    """
    cfg = config if config is not None else MaronnaConfig()
    x = np.asarray(xw, dtype=float)
    y = np.asarray(yw, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"need matching (B, M) batches, got {x.shape} vs {y.shape}")
    B, m = x.shape
    if m < 3:
        raise ValueError("window length must be >= 3 for a robust fit")
    work = np.empty((N_WORK_BUFFERS, B, m))
    work[0], work[1] = x, y
    tx, sx = robust_start(work[0])
    ty, sy = robust_start(work[1])
    return maronna_fixed_point(work, B, tx, ty, sx, sy, cfg)[0]


def maronna_corr(x, y, config: MaronnaConfig | None = None) -> float:
    """Maronna correlation of two equal-length 1-D samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"need equal-length 1-D inputs, got {x.shape} vs {y.shape}")
    return float(maronna_corr_batched(x[None, :], y[None, :], config)[0])
