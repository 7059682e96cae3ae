"""Position sizing and trade returns (paper §III, steps 4 and 6).

The share ratio keeps the trade "as close to cash-neutral as possible, but
just slightly on the long side": with prices ``P_i > P_j``, longing ``i``
uses the ratio 1 : ⌊P_i / P_j⌋ (long value ≥ short value), shorting ``i``
uses 1 : ⌈P_i / P_j⌉ (again long value ≥ short value).

The trade return is ``R = π / (P_i N_i + P_j N_j)`` with ``π`` the dollar
profit over both legs and the denominator the entry prices times shares —
the committed capital.  (The paper's worked example contains two slips —
it divides $5 by $180 after computing a $280 basis and reports 2.8%; the
formula as printed gives 5/280 ≈ 1.8% — we implement the formula.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.validation import check_positive


def cash_neutral_shares(price_long: float, price_short: float) -> tuple[int, int]:
    """Share counts ``(n_long, n_short)`` per paper step 4.

    The expensive leg trades one share; the cheap leg trades the rounded
    price ratio, with rounding chosen so the long side is the larger:
    floor when the expensive leg is long, ceil when it is short.
    """
    price_long = check_positive(price_long, "price_long")
    price_short = check_positive(price_short, "price_short")
    return shares_unchecked(price_long, price_short)


def shares_unchecked(price_long: float, price_short: float) -> tuple[int, int]:
    """:func:`cash_neutral_shares` for prices the caller has already
    checked finite and positive (a :class:`~repro.strategy.engine.DayBlock`
    checks its whole day once)."""
    if price_long >= price_short:
        return 1, max(1, math.floor(price_long / price_short))
    return math.ceil(price_short / price_long), 1


@dataclass(frozen=True, slots=True)
class PairPosition:
    """An open pair position.

    ``long_leg`` identifies which element of the (ordered) pair is held
    long (0 or 1); entry prices are the BAM closes at the entry interval.
    """

    entry_s: int
    long_leg: int
    n_long: int
    n_short: int
    entry_price_long: float
    entry_price_short: float
    entry_spread: float
    retracement_level: float
    #: +1 → reverse when the spread rises to the level; -1 → when it falls.
    retracement_direction: int

    def __post_init__(self) -> None:
        if self.long_leg not in (0, 1):
            raise ValueError(f"long_leg must be 0 or 1, got {self.long_leg}")
        if self.n_long < 1 or self.n_short < 1:
            raise ValueError("share counts must be >= 1")
        check_positive(self.entry_price_long, "entry_price_long")
        check_positive(self.entry_price_short, "entry_price_short")
        if self.retracement_direction not in (-1, 1):
            raise ValueError(
                f"retracement_direction must be ±1, got {self.retracement_direction}"
            )

    @property
    def basis(self) -> float:
        """Committed capital: entry prices times shares over both legs."""
        return (
            self.entry_price_long * self.n_long
            + self.entry_price_short * self.n_short
        )

    def retracement_hit(self, spread: float) -> bool:
        """True when the current spread has reached the retracement level."""
        if self.retracement_direction > 0:
            return spread >= self.retracement_level
        return spread <= self.retracement_level


def position_return(
    position: PairPosition, exit_price_long: float, exit_price_short: float
) -> float:
    """Paper step 6: ``R = π / (P_i N_i + P_j N_j)``.

    ``π`` is the profit over both legs: the long leg earns the price rise,
    the short leg earns the price fall.
    """
    check_positive(exit_price_long, "exit_price_long")
    check_positive(exit_price_short, "exit_price_short")
    return return_unchecked(
        position.entry_price_long, position.n_long,
        position.entry_price_short, position.n_short,
        exit_price_long, exit_price_short,
    )


def return_unchecked(
    entry_price_long: float,
    n_long: int,
    entry_price_short: float,
    n_short: int,
    exit_price_long: float,
    exit_price_short: float,
) -> float:
    """:func:`position_return` on a position's fields, for prices the
    caller has already checked; the divisor is :attr:`PairPosition.basis`."""
    profit = (exit_price_long - entry_price_long) * n_long + (
        entry_price_short - exit_price_short
    ) * n_short
    return profit / (entry_price_long * n_long + entry_price_short * n_short)
