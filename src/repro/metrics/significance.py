"""Statistical significance of treatment differences (paper §V).

The paper stops short: "all of these simple comparisons between values in
the tables need to be examined on a more rigorous standard of statistical
significance in order to be truly meaningful ... Details of this more
rigorous statistical approach are not included in this paper, and will be
the subject of further studies."

This module is that further study, using exactly the experimental design
the paper describes: the three correlation types are treatments applied to
the same pairs at the same factor levels, so per-pair samples are
*paired* across treatments.  For each treatment pair we report:

* the paired t-test (parametric; the per-pair averages are means over 14
  levels, so a CLT appeal is defensible),
* the Wilcoxon signed-rank test (the tables show heavy skew and kurtosis,
  so a rank test is the robust cross-check),
* a seeded bootstrap confidence interval for the mean difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.corr.measures import CorrelationType
from repro.metrics.summary import treatment_samples
from repro.strategy.params import StrategyParams

if TYPE_CHECKING:  # avoid a circular import; stores are duck-typed at runtime
    from repro.backtest.results import ResultStore


@dataclass(frozen=True)
class PairedComparison:
    """One treatment-vs-treatment comparison over paired per-pair samples."""

    treatment_a: CorrelationType
    treatment_b: CorrelationType
    measure: str
    n: int
    mean_diff: float  # mean(a - b)
    t_stat: float
    t_pvalue: float
    wilcoxon_stat: float
    wilcoxon_pvalue: float
    ci_low: float
    ci_high: float

    def significant(self, alpha: float = 0.05) -> bool:
        """True when both tests reject at ``alpha`` (conservative AND)."""
        return self.t_pvalue < alpha and self.wilcoxon_pvalue < alpha


def paired_comparison(
    a: np.ndarray,
    b: np.ndarray,
    treatment_a: CorrelationType,
    treatment_b: CorrelationType,
    measure: str,
    n_bootstrap: int = 2000,
    seed: int = 0,
    ci_level: float = 0.95,
) -> PairedComparison:
    """Compare two paired samples (same pairs, same factor levels)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"need matching 1-D samples, got {a.shape} vs {b.shape}")
    if a.size < 3:
        raise ValueError("need at least 3 paired observations")
    if not 0.0 < ci_level < 1.0:
        raise ValueError(f"ci_level must be in (0, 1), got {ci_level}")
    diff = a - b

    if np.allclose(diff, 0.0):
        # Identical samples: no evidence of any difference.
        t_stat, t_p = 0.0, 1.0
        w_stat, w_p = 0.0, 1.0
    else:
        from scipy import stats as sps  # scipy stays off the import path

        t_stat, t_p = sps.ttest_rel(a, b)
        w_stat, w_p = sps.wilcoxon(a, b, zero_method="wilcox")

    rng = np.random.default_rng(seed)
    boots = np.empty(n_bootstrap)
    for i in range(n_bootstrap):
        sample = rng.choice(diff, size=diff.size, replace=True)
        boots[i] = sample.mean()
    tail = (1.0 - ci_level) / 2.0
    ci_low, ci_high = np.quantile(boots, [tail, 1.0 - tail])

    return PairedComparison(
        treatment_a=treatment_a,
        treatment_b=treatment_b,
        measure=measure,
        n=int(a.size),
        mean_diff=float(diff.mean()),
        t_stat=float(t_stat),
        t_pvalue=float(t_p),
        wilcoxon_stat=float(w_stat),
        wilcoxon_pvalue=float(w_p),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
    )


def treatment_significance(
    store: "ResultStore",
    grid: list[StrategyParams],
    measure: str,
    n_bootstrap: int = 2000,
    seed: int = 0,
) -> list[PairedComparison]:
    """All three pairwise treatment comparisons for one measure.

    Ordering follows the enum: Pearson-vs-Maronna, Pearson-vs-Combined,
    Maronna-vs-Combined.
    """
    samples = treatment_samples(store, grid, measure)
    ctypes = [c for c in CorrelationType if c in samples]
    out = []
    for i, ca in enumerate(ctypes):
        for cb in ctypes[i + 1 :]:
            out.append(
                paired_comparison(
                    samples[ca],
                    samples[cb],
                    ca,
                    cb,
                    measure,
                    n_bootstrap=n_bootstrap,
                    seed=seed,
                )
            )
    return out


def format_significance_table(comparisons: list[PairedComparison]) -> str:
    """Render comparisons as a fixed-width report table."""
    if not comparisons:
        raise ValueError("no comparisons to format")
    lines = [
        f"{'comparison':<22} {'measure':<9} {'mean diff':>10} {'t p-val':>9} "
        f"{'wilcoxon p':>11} {'95% CI':>22} {'sig?':>5}"
    ]
    for c in comparisons:
        name = f"{c.treatment_a.value} vs {c.treatment_b.value}"
        ci = f"[{c.ci_low:+.5f}, {c.ci_high:+.5f}]"
        lines.append(
            f"{name:<22} {c.measure:<9} {c.mean_diff:>+10.5f} "
            f"{c.t_pvalue:>9.4f} {c.wilcoxon_pvalue:>11.4f} {ci:>22} "
            f"{'yes' if c.significant() else 'no':>5}"
        )
    return "\n".join(lines)
