"""Data adapters: the left column of Figure 1.

All three collectors emit the same stream shape on their ``quotes``
output port: one message per grid interval, ``(s, records)`` with
``records`` the interval's quote rows (possibly empty) in chronological
order.  Downstream components are therefore adapter-agnostic, which is
the point of the adapter layer.

* :class:`LiveCollector` — "Live Data Feed": pulls a day from a
  :class:`~repro.taq.synthetic.SyntheticMarket` (the stand-in for a
  real-time feed handler);
* :class:`FileCollector` — "Custom TAQ Files": reads a quote CSV written
  by :func:`repro.taq.io.write_taq_csv`;
* :class:`DbCollector` — "MySQL DB": reads from an in-memory
  :class:`QuoteDatabase` keyed by day.
* :class:`StoreCollector` — replays a day from a
  :class:`~repro.store.reader.StoreReader` via the shard-merging
  :class:`~repro.store.replay.ReplayCursor`.

Every collector is *resumable*: ``set_interval_range(start, stop)``
restricts emission to ``[start, stop)`` and the snapshot records the
high-water mark, so the supervisor can replay a session from the last
checkpoint (the sources re-derive their data deterministically, the
store collector seeks its replay cursor).
"""

from __future__ import annotations

import numpy as np

from repro.marketminer.component import Component, Context
from repro.taq.io import read_taq_csv
from repro.taq.synthetic import SyntheticMarket
from repro.taq.types import validate_quote_array
from repro.taq.universe import Universe
from repro.util.timeutil import TimeGrid


class CollectorBase(Component):
    """Shared by the Figure-1 collectors: the resumable interval range and
    the ``generate`` that cuts a whole day (``_day_quotes``) into messages."""

    def __init__(self, grid: TimeGrid, name: str):
        super().__init__(name=name, output_ports=("quotes",))
        self.grid = grid
        self._start = 0
        self._stop: int | None = None

    def set_interval_range(self, start: int, stop: int | None = None) -> None:
        """Restrict emission to grid intervals ``[start, stop)``."""
        smax = self.grid.smax
        end = smax if stop is None else stop
        if not 0 <= start <= end <= smax:
            raise ValueError(
                f"{self.name}: interval range [{start}, {end}) outside "
                f"[0, {smax}]"
            )
        self._start = start
        self._stop = stop

    @property
    def interval_range(self) -> tuple[int, int]:
        """The effective ``(start, stop)`` emission range."""
        stop = self.grid.smax if self._stop is None else self._stop
        return self._start, stop

    def _day_quotes(self) -> np.ndarray:
        """The day's chronological quotes (or override ``generate``)."""
        raise NotImplementedError(f"{self.name}: no _day_quotes()")

    def generate(self, ctx: Context) -> None:
        """Slice the day into one message per interval of the range.

        The cuts are made on the whole day whatever the range, so a run
        split into ranges emits bitwise the same messages as one pass;
        quotes beyond the last complete interval never trade.
        """
        quotes = self._day_quotes()
        grid = self.grid
        start, stop = self.interval_range
        cuts = np.searchsorted(
            quotes["t"], np.arange(0, grid.smax + 1) * grid.delta_s, side="left"
        )
        ctx.obs.metrics.counter(
            f"pipeline.{self.name}.quotes_collected"
        ).inc(int(cuts[stop] - cuts[start]))
        for s in range(start, stop):
            ctx.emit("quotes", (s, quotes[cuts[s]:cuts[s + 1]]))

    def snapshot(self) -> dict:
        # The high-water mark: everything below ``stop`` was emitted (or
        # deliberately skipped via the range) by the time of snapshot.
        return {"watermark": self.interval_range[1]}

    def restore(self, state: dict) -> None:
        self.set_interval_range(int(state["watermark"]), None)


class LiveCollector(CollectorBase):
    """Streams one synthetic trading day, interval by interval."""

    def __init__(
        self,
        market: SyntheticMarket,
        grid: TimeGrid,
        day: int = 0,
        name: str = "live_collector",
    ):
        super().__init__(grid, name)
        if grid.trading_seconds > market.config.trading_seconds:
            raise ValueError("grid session longer than the market session")
        self.market = market
        self.day = day

    def _day_quotes(self) -> np.ndarray:
        return self.market.quotes(self.day)


class FileCollector(CollectorBase):
    """Streams a quote CSV file (Table II schema)."""

    def __init__(
        self,
        path,
        universe: Universe,
        grid: TimeGrid,
        name: str = "file_collector",
    ):
        super().__init__(grid, name)
        self.path = path
        self.universe = universe

    def _day_quotes(self) -> np.ndarray:
        return read_taq_csv(self.path, self.universe)


class QuoteDatabase:
    """In-memory stand-in for the historical quote database."""

    def __init__(self) -> None:
        self._days: dict[int, np.ndarray] = {}

    def store(self, day: int, records: np.ndarray) -> None:
        if day < 0:
            raise ValueError(f"day must be >= 0, got {day}")
        validate_quote_array(records)
        self._days[day] = records.copy()

    def load(self, day: int) -> np.ndarray:
        try:
            return self._days[day].copy()
        except KeyError:
            raise KeyError(f"no quotes stored for day {day}") from None

    @property
    def days(self) -> list[int]:
        return sorted(self._days)

    def __len__(self) -> int:
        return len(self._days)


class DbCollector(CollectorBase):
    """Streams one stored day from a :class:`QuoteDatabase`."""

    def __init__(
        self,
        db: QuoteDatabase,
        grid: TimeGrid,
        day: int = 0,
        name: str = "db_collector",
    ):
        super().__init__(grid, name)
        self.db = db
        self.day = day

    def _day_quotes(self) -> np.ndarray:
        return self.db.load(self.day)


class StoreCollector(CollectorBase):
    """Streams one day out of the partitioned tick store.

    Emits the same ``(s, records)`` interval stream as the other
    collectors, but batches come from the store's shard-merging replay
    cursor instead of an in-memory day array — segments are read through
    the CRC-verified block cache, never materialising the whole day.  On
    restore, the cursor seeks straight to the checkpoint watermark.
    """

    def __init__(self, reader, grid: TimeGrid, day: int = 0,
                 name: str = "store_collector"):
        super().__init__(grid, name)
        self.reader = reader
        self.day = day

    def generate(self, ctx: Context) -> None:
        from repro.store.replay import ReplayCursor

        cursor = ReplayCursor(self.reader, self.day, self.grid)
        start, stop = self.interval_range
        ctx.obs.metrics.counter(
            f"pipeline.{self.name}.quotes_collected"
        ).inc(cursor.rows_between(start, stop))
        for s, records in cursor.iter_range(start, stop):
            ctx.emit("quotes", (s, records))
