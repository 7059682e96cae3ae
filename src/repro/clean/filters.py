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
mask, so what the batch and the stream keep cannot differ.  The filter is
a per-symbol recurrence with rejection, which numpy cannot vectorise
along time, so the per-quote loop is C (``tcp_filter.c`` beside this
module, built on import by :mod:`repro.util.native`) over a
:class:`FilterBank`'s arrays.
"""

from __future__ import annotations

import copy
import ctypes
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.taq.types import validate_quote_array
from repro.util import native
from repro.util.validation import check_positive, check_positive_int

_KERNEL = native.load(Path(__file__).with_name("tcp_filter.c"))
_KERNEL.tcp_filter.restype = ctypes.c_int64
_KERNEL.tcp_filter.argtypes = [
    ctypes.c_int64,  # n
    # bam, crossed, symbol
    native.array(np.float64), native.array(np.bool_), native.array(np.int32),
    # avg, dev, seen: the bank's state, updated in place
    native.array(np.float64, True),
    native.array(np.float64, True),
    native.array(np.int64, True),
    ctypes.c_double, ctypes.c_double, ctypes.c_double,  # alpha, beta, k
    ctypes.c_int64, ctypes.c_double,  # warmup, min_dev_frac
    native.array(np.bool_, True),  # keep
]


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


class FilterBank:
    """The TCP-like filter's state for every symbol of a universe, as arrays.

    ``avg`` is each symbol's smoothed price, ``dev`` its smoothed absolute
    deviation and ``seen`` the count of ticks it accepted; ``seen == 0``
    means no average yet.  The parameters are shared by every symbol:

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

    The frozen per-symbol definition is ``tests.oracle.TcpLikeFilter``;
    :func:`filter_quotes` gives its mask and leaves its state, bitwise.
    """

    def __init__(
        self,
        n_symbols: int,
        alpha: float = 0.125,
        beta: float = 0.25,
        k: float = 6.0,
        warmup: int = 20,
        min_dev_frac: float = 1.0e-3,
    ):
        check_positive_int(n_symbols, "n_symbols")
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
        self.avg = np.zeros(n_symbols)
        self.dev = np.zeros(n_symbols)
        self.seen = np.zeros(n_symbols, dtype=np.int64)

    def __len__(self) -> int:
        return self.seen.size

    def copy(self) -> FilterBank:
        """An independent bank in the same state."""
        out = copy.copy(self)
        out.avg = self.avg.copy()
        out.dev = self.dev.copy()
        out.seen = self.seen.copy()
        return out


def filter_quotes(
    records: np.ndarray, bank: FilterBank
) -> tuple[np.ndarray, int, int]:
    """Run a batch of quotes through a filter bank, one C call.

    A quote is dropped if it is crossed (bid >= ask) or if its bid–ask
    midpoint is rejected by its symbol's filter (every uncrossed quote
    meets its filter, in stream order).  Returns the ``keep`` mask and the
    ``rejected_outlier`` and ``rejected_crossed`` counts; the bank carries
    the state, so a day may be fed whole or an interval at a time.
    """
    symbols = records["symbol"]
    if symbols.size and (symbols.min() < 0 or symbols.max() >= len(bank)):
        raise ValueError(f"symbol indices must lie in [0, {len(bank)})")
    crossed = records["bid"] >= records["ask"]
    bam = 0.5 * (records["bid"] + records["ask"])
    keep = np.empty(records.size, dtype=bool)
    kept = _KERNEL.tcp_filter(
        records.size, bam, crossed, np.ascontiguousarray(symbols, np.int32),
        bank.avg, bank.dev, bank.seen,
        bank.alpha, bank.beta, bank.k, bank.warmup, bank.min_dev_frac,
        keep,
    )
    rejected_crossed = int(np.count_nonzero(crossed))
    return keep, records.size - rejected_crossed - kept, rejected_crossed


def clean_quotes(
    records: np.ndarray,
    n_symbols: int,
    alpha: float = 0.125,
    beta: float = 0.25,
    k: float = 6.0,
    warmup: int = 20,
    min_dev_frac: float = 1.0e-3,
) -> tuple[np.ndarray, CleaningStats]:
    """Clean a chronological quote array with a fresh filter bank.

    Returns the quotes :func:`filter_quotes` keeps (original order
    preserved) and the disposition counts.
    """
    validate_quote_array(records, n_symbols=n_symbols)
    bank = FilterBank(
        n_symbols,
        alpha=alpha, beta=beta, k=k, warmup=warmup, min_dev_frac=min_dev_frac,
    )
    keep, rejected_outlier, rejected_crossed = filter_quotes(records, bank)
    stats = CleaningStats(
        total=int(records.size),
        accepted=int(keep.sum()),
        rejected_outlier=rejected_outlier,
        rejected_crossed=rejected_crossed,
    )
    return records[keep], stats
