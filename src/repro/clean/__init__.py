"""Tick-data cleaning.

Raw TAQ quote streams contain transmission errors, human typos, electronic
test quotes and far-out limit orders (paper §III).  This subpackage
implements the paper's approach: "a very simple but effective TCP-like
filter to eliminate prices that are more than a few standard deviations
from their corresponding moving average and deviation", leaving residual
outliers to be down-weighted by the robust correlation measure.
"""

from repro.clean.filters import CleaningStats, FilterBank, clean_quotes

__all__ = ["CleaningStats", "FilterBank", "clean_quotes"]
