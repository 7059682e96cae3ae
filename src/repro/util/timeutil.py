"""Intra-day time grids.

The paper indexes time by intervals of width ``delta_s`` seconds inside a
trading day of 23400 seconds (09:30–16:00 US equities).  ``TimeGrid``
captures that indexing: interval ``s`` covers seconds
``[s * delta_s, (s + 1) * delta_s)`` measured from the open, with
``s = 0 .. smax - 1`` and ``smax = trading_seconds // delta_s``.

The paper's example: with ``delta_s = 30`` a 23400-second day has
``smax = 780`` intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Number of seconds in a regular US equities trading day (09:30–16:00).
TRADING_SECONDS_PER_DAY = 23_400

#: Seconds from midnight to the 09:30 open.
MARKET_OPEN_SECONDS = 9 * 3600 + 30 * 60


@dataclass(frozen=True, slots=True)
class TimeGrid:
    """Uniform grid of intra-day intervals of width ``delta_s`` seconds.

    Parameters
    ----------
    delta_s:
        Interval width in seconds; must divide into at least one interval.
    trading_seconds:
        Length of the trading session in seconds (default 23400).

    Attributes
    ----------
    smax:
        Number of complete intervals in the session.  A trailing partial
        interval (when ``delta_s`` does not divide ``trading_seconds``) is
        dropped, matching the paper's exact-division examples.
    """

    delta_s: int
    trading_seconds: int = TRADING_SECONDS_PER_DAY

    def __post_init__(self) -> None:
        if self.delta_s <= 0:
            raise ValueError(f"delta_s must be positive, got {self.delta_s}")
        if self.trading_seconds <= 0:
            raise ValueError(
                f"trading_seconds must be positive, got {self.trading_seconds}"
            )
        if self.trading_seconds < self.delta_s:
            raise ValueError(
                f"trading_seconds={self.trading_seconds} shorter than one "
                f"interval of delta_s={self.delta_s}"
            )

    @property
    def smax(self) -> int:
        """Number of complete intervals in the session."""
        return self.trading_seconds // self.delta_s

    def start_of(self, s: int) -> int:
        """Second-from-open at which interval ``s`` starts."""
        self._check_index(s)
        return s * self.delta_s

    def end_of(self, s: int) -> int:
        """Second-from-open at which interval ``s`` ends (exclusive)."""
        self._check_index(s)
        return (s + 1) * self.delta_s

    def intervals_remaining(self, s: int) -> int:
        """Number of intervals strictly after ``s`` (0 at the last one)."""
        self._check_index(s)
        return self.smax - 1 - s

    def _check_index(self, s: int) -> None:
        if not 0 <= s < self.smax:
            raise IndexError(f"interval index {s} outside [0, {self.smax})")


def seconds_to_clock(second_from_open: float) -> str:
    """Render a second-from-open offset as a wall-clock ``HH:MM:SS`` string.

    Used when printing synthetic TAQ rows in the Table II format.
    """
    if second_from_open < 0:
        raise ValueError(f"second_from_open must be >= 0, got {second_from_open}")
    total = MARKET_OPEN_SECONDS + int(second_from_open)
    h, rem = divmod(total, 3600)
    m, s = divmod(rem, 60)
    return f"{h:02d}:{m:02d}:{s:02d}"
