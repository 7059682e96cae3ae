"""The per-window correlation oracle the batch kernels are tested against.

A reference implementation, deliberately slow and obvious: for the robust
measures one kernel call per window (batch size 1, i.e. the genuine scalar
fixed-point loop); per-window convergence freezing makes the production
blocks of :mod:`repro.corr.batch` bitwise-identical to it.  Pearson has no
per-window scalar form in the tree (the rolling cumsum identity *is* the
definition), so it delegates to :func:`repro.corr.pearson.pearson_series`.
"""

import numpy as np

from repro.bars.returns import sliding_windows
from repro.corr.combined import combined_corr_batched
from repro.corr.maronna import maronna_corr_batched
from repro.corr.measures import CorrelationType, all_pairs
from repro.corr.pearson import pearson_series


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
