"""Measure selection and the single-window correlation entry points.

Everything downstream (strategy, backtesters, pipeline components) names a
treatment through the :class:`CorrelationType` enum, so swapping the
paper's three measures is a parameter change, never a code change.  This
module covers one window at a time (:func:`pairwise_corr`,
:func:`corr_matrix`); rolling series over a day live in
:mod:`repro.corr.batch`.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.corr.combined import combined_corr, combined_corr_batched
from repro.corr.maronna import MaronnaConfig, maronna_corr, maronna_corr_batched
from repro.corr.pearson import (
    pearson_corr,
    pearson_corr_batched,
    pearson_matrix,
)
from repro.util.validation import check_positive_int


class CorrelationType(enum.Enum):
    """The paper's three correlation treatments."""

    PEARSON = "pearson"
    MARONNA = "maronna"
    COMBINED = "combined"

    @classmethod
    def parse(cls, value) -> "CorrelationType":
        """Accept an enum member or its (case-insensitive) string name."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        raise ValueError(
            f"unknown correlation type {value!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


_SCALAR = {
    CorrelationType.PEARSON: lambda x, y, cfg: pearson_corr(x, y),
    CorrelationType.MARONNA: maronna_corr,
    CorrelationType.COMBINED: combined_corr,
}

#: The batched ``(xw, yw, config) -> per-row correlation`` kernel of each
#: treatment — the one table that says which code computes which measure.
BATCHED_KERNELS = {
    CorrelationType.PEARSON: lambda xw, yw, cfg: pearson_corr_batched(xw, yw),
    CorrelationType.MARONNA: maronna_corr_batched,
    CorrelationType.COMBINED: combined_corr_batched,
}


def all_pairs(n: int) -> list[tuple[int, int]]:
    """The ``n·(n-1)/2`` ordered symbol pairs ``(i, j)`` with ``i < j``."""
    check_positive_int(n, "n")
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def check_pairs(pairs, n: int) -> list[tuple[int, int]]:
    """Require every pair to name two distinct symbols of an ``n``-universe.

    Returns the pairs as a list of tuples.
    """
    pairs = [tuple(p) for p in pairs]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ValueError(f"invalid pair ({i}, {j}) for n={n}")
    return pairs


def pairwise_corr(
    x,
    y,
    ctype: CorrelationType | str = CorrelationType.PEARSON,
    config: MaronnaConfig | None = None,
) -> float:
    """Correlation of two equal-length 1-D samples under ``ctype``."""
    ctype = CorrelationType.parse(ctype)
    return _SCALAR[ctype](x, y, config)


def corr_matrix(
    window: np.ndarray,
    ctype: CorrelationType | str = CorrelationType.PEARSON,
    config: MaronnaConfig | None = None,
    pairs: list[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Full (n, n) correlation matrix of an ``(M, n)`` return window.

    With ``pairs`` given, only those entries (and their transposes) are
    computed; the rest are 0 — the form the block-parallel engine uses to
    assemble partial matrices.  Robust matrices are assembled pairwise and
    therefore not guaranteed PSD (paper, Approach 2 caveat); see
    :func:`repro.corr.psd.nearest_psd_correlation`.
    """
    ctype = CorrelationType.parse(ctype)
    window = np.asarray(window, dtype=float)
    if window.ndim != 2:
        raise ValueError(f"need an (M, n) window, got shape {window.shape}")
    n = window.shape[1]

    if pairs is None:
        if ctype is CorrelationType.PEARSON:
            return pearson_matrix(window)
        pairs = all_pairs(n)
        full = True
    else:
        pairs = check_pairs(pairs, n)
        full = False

    out = np.zeros((n, n))
    if pairs:
        idx_i = np.asarray([i for i, _ in pairs], dtype=np.intp)
        idx_j = np.asarray([j for _, j in pairs], dtype=np.intp)
        vals = BATCHED_KERNELS[ctype](window.T[idx_i], window.T[idx_j], config)
        out[idx_i, idx_j] = vals
        out[idx_j, idx_i] = vals
    if full:
        np.fill_diagonal(out, 1.0)
    return out
