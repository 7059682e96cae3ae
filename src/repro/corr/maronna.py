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
matrices with a parallel algorithm (Chilson et al. 2006).  Here the
iteration is one C loop (``maronna_step.c`` beside this module, built on
import by :mod:`repro.util.native`) that takes each window to its own
fixed point; :func:`maronna_fixed_point` runs it over every window of a
pair block, which is the unit the parallel engine distributes.  The loop
does the vectorised NumPy step's arithmetic operation for operation, its
sums replicating NumPy's pairwise reduction, so it is bitwise that step
(``tests/oracle.py`` keeps it as ``frozen_maronna_fixed_point``).

Iteration starts from coordinate medians, MAD scales and the quadrant
correlation, and stops when the scatter stabilises.  Windows with zero
robust scale (constant series) yield correlation 0.0, consistent with
:mod:`repro.corr.pearson`.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.util import native
from repro.util.validation import check_positive, check_positive_int

#: Huber radius: 95% chi-square quantile for 2 dimensions, the standard
#: tuning for bivariate Huber scatter.  With 2 degrees of freedom the
#: chi-square quantile has the closed form ``-2 log(1 - p)``; this is
#: bitwise ``sqrt(scipy.stats.chi2.ppf(0.95, 2))``.
DEFAULT_HUBER_K: float = math.sqrt(-2.0 * math.log1p(-0.95))

_EPS = 1e-18

_KERNEL = native.load(Path(__file__).with_name("maronna_step.c"))
_KERNEL.maronna_fixed_point.restype = ctypes.c_int64
_KERNEL.maronna_fixed_point.argtypes = [
    ctypes.c_int64, native.array(np.int64),  # n_pairs, pairs
    ctypes.c_int64, ctypes.c_int64,  # n_win, m
    native.array(np.float64), ctypes.c_int64, ctypes.c_int64,  # series, L, step
    native.array(np.float64), native.array(np.float64),  # start, rho0
    ctypes.c_double, ctypes.c_double, ctypes.c_int64,  # k, tol, max_iter
    native.array(np.float64, True),  # corr
    ctypes.POINTER(ctypes.c_int64),  # unconverged
]
_KERNEL.add_reduce.restype = ctypes.c_double
_KERNEL.add_reduce.argtypes = [
    ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64  # row, n, stride
]


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
    series: np.ndarray,
    step: int,
    start: np.ndarray,
    pairs: np.ndarray,
    m: int,
    cfg: MaronnaConfig,
    out: np.ndarray,
) -> tuple[int, int]:
    """Iterate every window of every pair from its robust start to its
    own fixed point: one C loop (``maronna_step.c``) per window.

    The only implementation of the Maronna step.  ``series`` is a
    C-contiguous ``(n_series, L)`` float64 array; window ``w`` of series
    ``s`` is the ``m`` values from ``series[s, w * step]`` and
    ``start[s, :, w]`` its (median, scale) from :func:`robust_start`.
    ``pairs`` is an ``(n_pairs, 2)`` int64 array of series indices.  The
    correlation of window ``w`` of pair ``p``, in ``[-1, 1]``, is written
    to ``out[w, p]`` of the C-contiguous ``(n_windows, n_pairs)`` float64
    ``out``.

    Returns ``(row_steps, unconverged)``: the number of (window, step)
    updates made, and how many windows were still moving when
    ``cfg.max_iter`` stopped them.
    """
    # The C loop trusts every index it is given: check the geometry here.
    n_series, length = series.shape
    n_win = out.shape[0]
    if (
        not out.flags.c_contiguous
        or out.shape[1:] != (len(pairs),)
        or pairs.shape[1:] != (2,)
        or start.shape != (n_series, 2, n_win)
        or (n_win and (n_win - 1) * step + m > length)
        or (pairs.size and not 0 <= pairs.min() <= pairs.max() < n_series)
    ):
        raise ValueError(
            f"inconsistent fixed-point geometry: series {series.shape}, "
            f"step {step}, m {m}, start {start.shape}, pairs {pairs.shape}, "
            f"out {out.shape} (C-contiguous: {out.flags.c_contiguous})"
        )
    # The quadrant start, clipped sin(pi/2 * q), for every q = j/m that a
    # window's sign-product sum j can give: np.sin stays in NumPy.
    q = np.arange(-m, m + 1, dtype=float) / m
    rho0 = np.clip(np.sin(0.5 * np.pi * q), -0.98, 0.98)
    unconverged = ctypes.c_int64()
    row_steps = _KERNEL.maronna_fixed_point(
        len(pairs), pairs.ravel(), n_win, m, series.ravel(),
        length, step, start.ravel(), rho0, cfg.k, cfg.tol,
        cfg.max_iter, out.ravel(), ctypes.byref(unconverged),
    )
    if row_steps < 0:
        raise MemoryError(f"no scratch for a window of length {m}")
    return row_steps, unconverged.value


#: The one pair of :func:`maronna_corr_batched`: series 0 against series 1.
_ONE_PAIR = np.array([[0, 1]], dtype=np.int64)


def maronna_corr_batched(
    xw: np.ndarray, yw: np.ndarray, config: MaronnaConfig | None = None
) -> np.ndarray:
    """Maronna correlation per row of two ``(B, M)`` window batches.

    Each window iterates to its own fixed point (or ``max_iter``), so a
    row's result does not depend on the rest of the batch.  Returns shape
    ``(B,)`` in ``[-1, 1]``.
    """
    cfg = config if config is not None else MaronnaConfig()
    x = np.asarray(xw, dtype=float)
    y = np.asarray(yw, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"need matching (B, M) batches, got {x.shape} vs {y.shape}")
    B, m = x.shape
    if m < 3:
        raise ValueError("window length must be >= 3 for a robust fit")
    series = np.empty((2, B, m))  # C-ordered, whatever the inputs' layout
    series[0], series[1] = x, y
    start = np.array([robust_start(series[0]), robust_start(series[1])])
    out = np.empty((B, 1))
    maronna_fixed_point(
        series.reshape(2, B * m), m, start, _ONE_PAIR, m, cfg, out
    )
    return out[:, 0]


def maronna_corr(x, y, config: MaronnaConfig | None = None) -> float:
    """Maronna correlation of two equal-length 1-D samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"need equal-length 1-D inputs, got {x.shape} vs {y.shape}")
    return float(maronna_corr_batched(x[None, :], y[None, :], config)[0])
