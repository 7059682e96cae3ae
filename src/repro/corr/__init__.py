"""Correlation measures and engines.

The enabling feature of MarketMiner (paper §II) is producing large
correlation matrices over a sliding window of recent returns, in an online
fashion, with a choice of measures:

* **Pearson** — the standard product-moment coefficient, cheap but
  outlier-sensitive (:mod:`repro.corr.pearson`);
* **Maronna** — the robust M-estimator of bivariate scatter (Maronna 1976),
  far less sensitive to outliers but iterative and therefore expensive
  (:mod:`repro.corr.maronna`); the paper's platform exists largely to make
  this affordable market-wide;
* **Combined** — an equal blend of the two (:mod:`repro.corr.combined`;
  the paper uses but never defines "Combined" — see DESIGN.md).

Supporting machinery: measure selection and single-window matrices
(:mod:`repro.corr.measures`), rolling series for one pair, a pair block or
the whole universe from one set of batch kernels (:mod:`repro.corr.batch`
— bitwise equal to the per-window oracle in ``tests/oracle.py``), an
incremental online engine (:mod:`repro.corr.online`), PSD repair for
pairwise-assembled robust matrices (:mod:`repro.corr.psd`) and the
block-parallel matrix engine that runs over the MPI substrate
(:mod:`repro.corr.parallel`).  Pair screening and clustering
(:mod:`repro.corr.clustering`) are imported from their module, which
loads scipy only when called.
"""

from repro.corr.batch import (
    BatchWorkspace,
    batch_pair_blocks,
    batch_pair_series,
    corr_matrix_series,
    corr_series,
)
from repro.corr.combined import combined_corr, combined_corr_batched
from repro.corr.eigen import (
    MarketMode,
    absorption_ratio,
    market_mode,
    residual_correlation,
)
from repro.corr.maronna import MaronnaConfig, maronna_corr, maronna_corr_batched
from repro.corr.measures import (
    CorrelationType,
    all_pairs,
    corr_matrix,
    pairwise_corr,
)
from repro.corr.online import OnlineCorrelationEngine
from repro.corr.parallel import ParallelCorrelationEngine
from repro.corr.pearson import (
    pearson_corr,
    pearson_corr_batched,
    pearson_matrix,
    pearson_series,
)
from repro.corr.psd import is_psd, nearest_psd_correlation

__all__ = [
    "BatchWorkspace",
    "CorrelationType",
    "MarketMode",
    "MaronnaConfig",
    "OnlineCorrelationEngine",
    "ParallelCorrelationEngine",
    "absorption_ratio",
    "all_pairs",
    "batch_pair_blocks",
    "batch_pair_series",
    "combined_corr",
    "combined_corr_batched",
    "corr_matrix",
    "corr_matrix_series",
    "corr_series",
    "is_psd",
    "market_mode",
    "maronna_corr",
    "maronna_corr_batched",
    "nearest_psd_correlation",
    "pairwise_corr",
    "pearson_corr",
    "pearson_corr_batched",
    "pearson_matrix",
    "pearson_series",
    "residual_correlation",
]
