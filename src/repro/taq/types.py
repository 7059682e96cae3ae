"""Quote record types.

Quotes are stored in bulk as a NumPy structured array (:data:`QUOTE_DTYPE`)
for vectorised processing — a day of TAQ data is millions of rows, so
per-row Python objects are reserved for the edges of the system (file IO,
display, tests).  :class:`Quote` is the one-row convenience view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bulk quote layout: seconds-from-open, symbol index into a Universe,
#: best bid/ask prices and sizes (sizes in round lots, as in TAQ).
QUOTE_DTYPE = np.dtype(
    [
        ("t", "f8"),
        ("symbol", "i4"),
        ("bid", "f8"),
        ("ask", "f8"),
        ("bid_size", "i4"),
        ("ask_size", "i4"),
    ]
)


@dataclass(frozen=True, slots=True)
class Quote:
    """A single bid–ask quote.

    ``t`` is seconds from the market open; ``symbol`` is an index into the
    :class:`~repro.taq.universe.Universe` that produced the quote.
    """

    t: float
    symbol: int
    bid: float
    ask: float
    bid_size: int = 1
    ask_size: int = 1

    @property
    def bam(self) -> float:
        """Bid–ask midpoint, the paper's price approximation."""
        return 0.5 * (self.bid + self.ask)

    @property
    def spread(self) -> float:
        return self.ask - self.bid


def quotes_to_records(quotes) -> np.ndarray:
    """Pack an iterable of :class:`Quote` into a structured array."""
    quotes = list(quotes)
    out = np.empty(len(quotes), dtype=QUOTE_DTYPE)
    for i, q in enumerate(quotes):
        out[i] = (q.t, q.symbol, q.bid, q.ask, q.bid_size, q.ask_size)
    return out


def quotes_from_records(records: np.ndarray) -> list[Quote]:
    """Unpack a structured array into :class:`Quote` objects."""
    if records.dtype != QUOTE_DTYPE:
        raise ValueError(f"expected QUOTE_DTYPE records, got {records.dtype}")
    return [
        Quote(
            t=float(r["t"]),
            symbol=int(r["symbol"]),
            bid=float(r["bid"]),
            ask=float(r["ask"]),
            bid_size=int(r["bid_size"]),
            ask_size=int(r["ask_size"]),
        )
        for r in records
    ]


def validate_quote_array(records: np.ndarray, n_symbols: int | None = None) -> None:
    """Sanity-check a bulk quote array; raise ``ValueError`` on violations.

    Checks dtype, chronological ordering, finite non-negative timestamps,
    positive finite prices (NaN is false under ``<= 0`` and no later stage
    can name it), positive sizes, and (optionally) symbol indices within
    the universe.
    Crossed quotes (bid > ask) are *allowed* — raw TAQ data contains them
    and the cleaning stage is responsible for dealing with the fallout.
    """
    if records.dtype != QUOTE_DTYPE:
        raise ValueError(f"expected QUOTE_DTYPE records, got {records.dtype}")
    if records.size == 0:
        return
    t = records["t"]
    if not np.all(np.isfinite(t)):
        raise ValueError("quote timestamps must be finite")
    if np.any(t < 0):
        raise ValueError("quote timestamps must be >= 0 seconds from open")
    if np.any(np.diff(t) < 0):
        raise ValueError("quotes must be in chronological order")
    for side in ("bid", "ask"):
        price = records[side]
        if not np.all((price > 0) & np.isfinite(price)):
            raise ValueError("quote prices must be positive and finite")
    if np.any(records["bid_size"] <= 0) or np.any(records["ask_size"] <= 0):
        raise ValueError("quote sizes must be positive")
    if n_symbols is not None:
        sym = records["symbol"]
        if np.any(sym < 0) or np.any(sym >= n_symbols):
            raise ValueError(f"symbol indices must lie in [0, {n_symbols})")
