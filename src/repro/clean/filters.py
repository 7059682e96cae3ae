"""The paper's "TCP-like" moving average / deviation filter.

TCP's retransmission-timeout estimator (RFC 6298) tracks a smoothed value
and a smoothed deviation with exponential weights; the paper applies the
same idea to prices: maintain an EWMA of the price and of its absolute
deviation, and reject ticks "more than a few standard deviations from their
corresponding moving average and deviation".  Rejected ticks do not update
the estimates, so a burst of garbage cannot drag the filter along with it.

:func:`filter_quotes` is the only place a quote meets a filter.
:func:`clean_quotes` runs it over a day with a fresh bank, the pipeline's
``CleaningComponent`` over each interval with a bank that persists, and
``repro.taq.quality.quality_report`` reads per-symbol rejections off its
mask, so what the batch and the stream keep cannot differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.taq.types import validate_quote_array
from repro.util.validation import check_positive, check_positive_int


@dataclass(frozen=True, slots=True)
class CleaningStats:
    """Disposition counts for one cleaning pass."""

    total: int
    accepted: int
    rejected_outlier: int
    rejected_crossed: int

    @property
    def rejected(self) -> int:
        return self.rejected_outlier + self.rejected_crossed

    @property
    def acceptance_rate(self) -> float:
        return 1.0 if self.total == 0 else self.accepted / self.total


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


def filter_quotes(
    records: np.ndarray, filters: list[TcpLikeFilter]
) -> tuple[np.ndarray, int, int]:
    """Run a batch of quotes through a bank of filters, one per symbol.

    A quote is dropped if it is crossed (bid >= ask) or if its bid–ask
    midpoint is rejected by its symbol's filter (every uncrossed quote
    meets its filter, in stream order).  Returns the ``keep`` mask and the
    ``rejected_outlier`` and ``rejected_crossed`` counts; the bank carries
    the state, so a day may be fed whole or an interval at a time.
    """
    symbols = records["symbol"]
    if symbols.size and (symbols.min() < 0 or symbols.max() >= len(filters)):
        raise ValueError(f"symbol indices must lie in [0, {len(filters)})")
    crossed = records["bid"] >= records["ask"]
    bam = 0.5 * (records["bid"] + records["ask"])
    keep = np.zeros(records.size, dtype=bool)
    for i in range(records.size):
        if not crossed[i]:
            keep[i] = filters[symbols[i]].update(float(bam[i]))
    rejected_crossed = int(crossed.sum())
    rejected_outlier = records.size - rejected_crossed - int(keep.sum())
    return keep, rejected_outlier, rejected_crossed


def clean_quotes(
    records: np.ndarray,
    n_symbols: int,
    alpha: float = 0.125,
    beta: float = 0.25,
    k: float = 6.0,
    warmup: int = 20,
    min_dev_frac: float = 1.0e-3,
) -> tuple[np.ndarray, CleaningStats]:
    """Clean a chronological quote array with one fresh filter per symbol.

    Returns the quotes :func:`filter_quotes` keeps (original order
    preserved) and the disposition counts.
    """
    validate_quote_array(records, n_symbols=n_symbols)
    filters = [
        TcpLikeFilter(
            alpha=alpha, beta=beta, k=k, warmup=warmup, min_dev_frac=min_dev_frac
        )
        for _ in range(n_symbols)
    ]
    keep, rejected_outlier, rejected_crossed = filter_quotes(records, filters)
    stats = CleaningStats(
        total=int(records.size),
        accepted=int(keep.sum()),
        rejected_outlier=rejected_outlier,
        rejected_crossed=rejected_crossed,
    )
    return records[keep], stats
