"""Data-quality reporting for quote streams.

"It is well-known that the quality of high-frequency realtime stock quote
data is low and difficult to use" (paper §II) — so a production pipeline
reports what it ingests.  :func:`quality_report` summarises a day's quote
stream per symbol: volume, quote rate, spread statistics, and the share
of quotes the TCP-like filter would reject — the operational dashboard a
trading desk watches before trusting the day's correlations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.taq.types import validate_quote_array
from repro.taq.universe import Universe


@dataclass(frozen=True)
class SymbolQuality:
    """Ingest statistics for one symbol."""

    symbol: str
    n_quotes: int
    quotes_per_second: float
    median_spread: float
    median_spread_bps: float
    max_spread_bps: float
    crossed: int
    rejected_outlier: int

    @property
    def rejection_rate(self) -> float:
        if self.n_quotes == 0:
            return 0.0
        return (self.crossed + self.rejected_outlier) / self.n_quotes


@dataclass(frozen=True)
class QualityReport:
    """Per-symbol and stream-level ingest statistics."""

    symbols: tuple[SymbolQuality, ...]
    total_quotes: int
    session_seconds: float

    def of(self, symbol: str) -> SymbolQuality:
        for s in self.symbols:
            if s.symbol == symbol:
                return s
        raise KeyError(f"symbol {symbol!r} not in report")

    @property
    def worst_symbol(self) -> SymbolQuality:
        return max(self.symbols, key=lambda s: s.rejection_rate)

    def format(self) -> str:
        lines = [
            f"{'symbol':<7} {'quotes':>7} {'q/s':>6} {'med spread':>11} "
            f"{'med bps':>8} {'max bps':>8} {'crossed':>8} {'outliers':>9}"
        ]
        for s in self.symbols:
            lines.append(
                f"{s.symbol:<7} {s.n_quotes:>7d} {s.quotes_per_second:>6.2f} "
                f"{s.median_spread:>11.4f} {s.median_spread_bps:>8.2f} "
                f"{s.max_spread_bps:>8.1f} {s.crossed:>8d} "
                f"{s.rejected_outlier:>9d}"
            )
        lines.append(
            f"\n{self.total_quotes} quotes over {self.session_seconds:.0f}s "
            f"({self.total_quotes / max(self.session_seconds, 1e-9):.0f}/s "
            f"market-wide); worst symbol by rejection rate: "
            f"{self.worst_symbol.symbol} "
            f"({self.worst_symbol.rejection_rate:.3%})"
        )
        return "\n".join(lines)


def quality_report(
    records: np.ndarray,
    universe: Universe,
    session_seconds: float | None = None,
) -> QualityReport:
    """Summarise a chronological quote stream per symbol.

    ``session_seconds`` defaults to the stream's time span; pass the
    session length for rate statistics over the full day.
    """
    validate_quote_array(records, n_symbols=len(universe))
    if session_seconds is None:
        session_seconds = float(records["t"].max()) if records.size else 0.0
    if records.size and session_seconds <= 0:
        raise ValueError("session_seconds must be positive")

    # Outlier rejections per symbol, read off the standard filter's mask.
    from repro.clean.filters import FilterBank, filter_quotes

    crossed_mask = records["bid"] >= records["ask"]
    keep, _, _ = filter_quotes(records, FilterBank(len(universe)))
    rejected_by_symbol = np.bincount(
        records["symbol"][~keep & ~crossed_mask], minlength=len(universe)
    )

    symbols = []
    for idx, name in enumerate(universe.symbols):
        mask = records["symbol"] == idx
        sub = records[mask]
        n = int(sub.size)
        crossed = int(crossed_mask[mask].sum())
        rejected = int(rejected_by_symbol[idx])
        if n:
            spread = sub["ask"] - sub["bid"]
            mid = 0.5 * (sub["ask"] + sub["bid"])
            med_spread = float(np.median(spread))
            spread_bps = spread / mid * 1e4
            med_bps = float(np.median(spread_bps))
            max_bps = float(spread_bps.max())
        else:
            med_spread = med_bps = max_bps = 0.0
        symbols.append(
            SymbolQuality(
                symbol=name,
                n_quotes=n,
                quotes_per_second=n / session_seconds if n else 0.0,
                median_spread=med_spread,
                median_spread_bps=med_bps,
                max_spread_bps=max_bps,
                crossed=crossed,
                rejected_outlier=rejected,
            )
        )
    return QualityReport(
        symbols=tuple(symbols),
        total_quotes=int(records.size),
        session_seconds=float(session_seconds),
    )
