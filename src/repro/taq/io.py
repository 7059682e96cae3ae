"""TAQ-style file input/output.

The paper's Table II shows the raw quote schema: Timestamp, Symbol, Bid
Price, Ask Price, Bid Size, Ask Size.  This module reads and writes that
schema as CSV (the "Custom TAQ Files" data source of Figure 1) and renders
quote batches in the Table II layout for the Table-II benchmark.

Both directions are vectorised: the writer formats whole columns with
``np.char.mod`` and the reader splits whole columns with
``np.char.partition`` + ``astype``, falling back to a per-row pass only to
locate and report a malformed value (with ``path:line`` context).  Fields
are never quoted — the Table-II schema has no embedded commas — so a
straight comma split is exact for files this module writes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.taq.types import QUOTE_DTYPE, validate_quote_array
from repro.taq.universe import Universe
from repro.util.timeutil import MARKET_OPEN_SECONDS, seconds_to_clock

_HEADER = ["timestamp", "symbol", "bid", "ask", "bid_size", "ask_size"]

#: Line terminator (matches the ``csv`` module's default, so files written
#: before the vectorised writer and after it are byte-identical).
_EOL = "\r\n"


def _clock_columns(t: np.ndarray) -> np.ndarray:
    """Vectorised ``HH:MM:SS.ffffff`` wall-clock strings for a t column.

    The fractional second is rounded to microseconds with an explicit
    carry into the whole second (``x.9999997`` becomes the next second,
    not a clamped ``.999999``), so parsing the string back is within
    5e-7 s of the original.
    """
    whole = t.astype(np.int64)
    micros = np.rint((t - whole) * 1_000_000).astype(np.int64)
    carry = micros >= 1_000_000
    whole = whole + carry
    micros = micros - carry * 1_000_000
    total = MARKET_OPEN_SECONDS + whole
    h, rem = np.divmod(total, 3600)
    m, s = np.divmod(rem, 60)
    out = np.char.mod("%02d", h)
    for sep, col in ((":", m), (":", s)):
        out = np.char.add(np.char.add(out, sep), np.char.mod("%02d", col))
    return np.char.add(np.char.add(out, "."), np.char.mod("%06d", micros))


def write_taq_csv(path, quotes: np.ndarray, universe: Universe) -> None:
    """Write a quote array to ``path`` in the Table II column layout.

    Timestamps are written as wall-clock ``HH:MM:SS`` with the fractional
    second appended (TAQ itself is second-stamped; we keep the fraction so
    a round-trip is lossless).
    """
    validate_quote_array(quotes, n_symbols=len(universe))
    path = Path(path)
    if quotes.size == 0:
        path.write_text(",".join(_HEADER) + _EOL)
        return
    columns = (
        _clock_columns(quotes["t"]),
        np.asarray(universe.symbols)[quotes["symbol"]],
        np.char.mod("%.2f", quotes["bid"]),
        np.char.mod("%.2f", quotes["ask"]),
        np.char.mod("%d", quotes["bid_size"]),
        np.char.mod("%d", quotes["ask_size"]),
    )
    lines = columns[0]
    for col in columns[1:]:
        lines = np.char.add(np.char.add(lines, ","), col)
    path.write_text(
        ",".join(_HEADER) + _EOL + _EOL.join(lines.tolist()) + _EOL
    )


def _clock_to_seconds(stamp: str, path=None, line_no: int | None = None) -> float:
    """Parse one ``HH:MM:SS[.ffffff]`` stamp to seconds-from-open.

    ``path`` and ``line_no``, when given, prefix the error message so a
    malformed stamp deep inside a large file is locatable.
    """
    where = f"{path}:{line_no}: " if path is not None else ""
    parts = stamp.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"{where}bad timestamp {stamp!r}, expected HH:MM:SS[.ffffff]"
        )
    try:
        h, m = int(parts[0]), int(parts[1])
        s = float(parts[2])
    except ValueError:
        raise ValueError(
            f"{where}bad timestamp {stamp!r}, expected HH:MM:SS[.ffffff]"
        ) from None
    total = h * 3600 + m * 60 + s
    return total - MARKET_OPEN_SECONDS


def _parse_clock_column(stamps: np.ndarray, path) -> np.ndarray:
    """Timestamp column to seconds-from-open, vectorised with fallback."""
    first = np.char.partition(stamps, ":")
    second = np.char.partition(first[:, 2], ":")
    try:
        h = first[:, 0].astype(np.int64)
        m = second[:, 0].astype(np.int64)
        s = second[:, 2].astype(np.float64)
    except ValueError:
        # Some stamp is malformed; re-parse row by row to name the line.
        return np.array(
            [
                _clock_to_seconds(stamp, path=path, line_no=line_no)
                for line_no, stamp in enumerate(stamps.tolist(), start=2)
            ]
        )
    return h * 3600.0 + m * 60.0 + s - MARKET_OPEN_SECONDS


def _parse_number_column(
    column: np.ndarray, dtype, name: str, path
) -> np.ndarray:
    """A numeric CSV column via ``astype``, locating any bad value."""
    try:
        return column.astype(dtype)
    except ValueError:
        caster = float if dtype == np.float64 else int
        for line_no, value in enumerate(column.tolist(), start=2):
            try:
                caster(value)
            except ValueError:
                raise ValueError(
                    f"{path}:{line_no}: bad {name} value {value!r}"
                ) from None
        raise


def read_taq_csv(path, universe: Universe) -> np.ndarray:
    """Read a quote CSV written by :func:`write_taq_csv`.

    Symbols not present in ``universe`` raise ``KeyError`` — a file/universe
    mismatch is configuration error, not data to be silently dropped.
    Malformed rows raise ``ValueError`` with ``path:line`` context.
    """
    path = Path(path)
    lines = path.read_text().replace("\r\n", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(",") if lines else None
    if header != _HEADER:
        raise ValueError(f"unexpected header {header!r} in {path}")
    if len(lines) == 1:
        return np.empty(0, dtype=QUOTE_DTYPE)
    rows = np.asarray(lines[1:])

    bad = np.char.count(rows, ",") != len(_HEADER) - 1
    if bad.any():
        line_no = int(np.flatnonzero(bad)[0]) + 2
        raise ValueError(
            f"{path}:{line_no}: expected {len(_HEADER)} fields"
        )
    columns = []
    rest = rows
    for _ in range(len(_HEADER) - 1):
        parts = np.char.partition(rest, ",")
        columns.append(parts[:, 0])
        rest = parts[:, 2]
    columns.append(rest)

    uniq, inverse = np.unique(columns[1], return_inverse=True)
    indices = np.array([universe.index_of(str(sym)) for sym in uniq])

    out = np.empty(rows.size, dtype=QUOTE_DTYPE)
    out["t"] = _parse_clock_column(columns[0], path)
    out["symbol"] = indices[inverse]
    out["bid"] = _parse_number_column(columns[2], np.float64, "bid", path)
    out["ask"] = _parse_number_column(columns[3], np.float64, "ask", path)
    out["bid_size"] = _parse_number_column(
        columns[4], np.int64, "bid_size", path
    )
    out["ask_size"] = _parse_number_column(
        columns[5], np.int64, "ask_size", path
    )
    # ``astype`` parses "nan" and "inf"; say where before validation says what.
    for name in ("t", "bid", "ask"):
        bad = ~np.isfinite(out[name])
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"{path}:{at + 2}: {name} must be finite, got {rows[at]!r}"
            )
    validate_quote_array(out, n_symbols=len(universe))
    return out


def format_table2(quotes: np.ndarray, universe: Universe, limit: int = 12) -> str:
    """Render the first ``limit`` quotes in the paper's Table II layout."""
    validate_quote_array(quotes, n_symbols=len(universe))
    lines = [
        f"{'Timestamp':<10} {'Symbol':<7} {'Bid Price':>9} {'Ask Price':>9} "
        f"{'Bid Size':>8} {'Ask Size':>8}"
    ]
    for rec in quotes[:limit]:
        lines.append(
            f"{seconds_to_clock(float(rec['t'])):<10} "
            f"{universe.symbols[int(rec['symbol'])]:<7} "
            f"{float(rec['bid']):>9.2f} {float(rec['ask']):>9.2f} "
            f"{int(rec['bid_size']):>8d} {int(rec['ask_size']):>8d}"
        )
    return "\n".join(lines)
