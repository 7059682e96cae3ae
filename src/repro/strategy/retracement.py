"""Retracement levels (paper §III, step 5).

Let ``Sl``, ``Sh`` and ``S̄`` be the low, high and average of the pair's
spread over the trailing spread window, and ``Se`` the spread at entry.

* Entered near the low (``Se ≤ S̄``): reverse when the spread has risen to
  ``L = Sl + ℓ(Sh − Sl)``.
* Entered near the high (``Se ≥ S̄``): reverse when the spread has fallen
  to ``L = Sh − ℓ(Sh − Sl)``.

``ℓ ∈ (0, 1)`` positions the target inside the recent range: the paper's
example with range $80–$100 and ``ℓ = 1/3`` reverses at $86.67 rising from
the low, or $93.33 falling from the high.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_fraction


@dataclass(frozen=True, slots=True)
class RetracementLevel:
    """A reversal target: the level and the direction it is approached from."""

    level: float
    #: +1 → reverse when the spread rises to the level; -1 → when it falls.
    direction: int

    def hit(self, spread: float) -> bool:
        if self.direction > 0:
            return spread >= self.level
        return spread <= self.level


def retracement_level(
    spread_window: np.ndarray, entry_spread: float, l: float
) -> RetracementLevel:
    """Compute the retracement target for a position opened at ``entry_spread``.

    ``spread_window`` holds the spread over the trailing ``RT`` intervals
    (including the entry interval).  The paper leaves ``Se = S̄`` ambiguous
    between its two cases; we resolve it to the rising case (``Se ≤ S̄``),
    which also covers the equality limit continuously.
    """
    check_fraction(l, "l")
    window = np.asarray(spread_window, dtype=float)
    if window.ndim != 1 or window.size == 0:
        raise ValueError("spread_window must be a non-empty 1-D array")
    if not np.all(np.isfinite(window)) or not np.isfinite(entry_spread):
        raise ValueError("spreads must be finite")
    level, direction = level_unchecked(
        float(window.min()), float(window.max()), float(window.mean()),
        entry_spread, l,
    )
    return RetracementLevel(level=level, direction=direction)


def level_unchecked(
    s_low: float, s_high: float, s_avg: float, entry_spread: float, l: float
) -> tuple[float, int]:
    """:func:`retracement_level` from the window's low, high and mean, as
    ``(level, direction)``, for inputs the caller has already checked."""
    if entry_spread <= s_avg:
        return s_low + l * (s_high - s_low), +1
    return s_high - l * (s_high - s_low), -1
