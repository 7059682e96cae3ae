"""The OHLC Bar Accumulator component (Figure 1).

Hands each per-interval quote batch, whole, to
:meth:`~repro.bars.accumulator.StreamingBarAccumulator.close_interval`
(the batch accumulator's kernel fed one interval; it refuses an interval
out of order, a quote outside it, an unknown symbol) and emits
``(s, ohlc_row)`` on ``bars`` plus the close-price vector ``(s, closes)``
on ``closes`` — the stream the strategy component prices against
("Quotes & Prices" in Figure 1).

Live streams cannot back-fill: a symbol has NaN closes until its first
quote arrives (the batch accumulator, which sees the whole day, back-fills
instead).  Downstream components must tolerate a NaN head.
"""

from __future__ import annotations

import copy

from repro.bars.accumulator import StreamingBarAccumulator
from repro.marketminer.component import Component, Context
from repro.util.timeutil import TimeGrid


class BarAccumulatorComponent(Component):
    """Streaming OHLC/BAM bar builder over a fixed interval grid."""

    def __init__(
        self,
        grid: TimeGrid,
        n_symbols: int,
        name: str = "bar_accumulator",
    ):
        super().__init__(
            name=name,
            input_ports=("quotes",),
            output_ports=("bars", "closes"),
        )
        self.grid = grid
        self._acc = StreamingBarAccumulator(grid, n_symbols)
        self._bars_emitted = 0

    def on_message(self, ctx: Context, port: str, payload) -> None:
        s, records = payload
        row = self._acc.close_interval(s, records)
        ctx.emit("bars", (s, row))
        ctx.emit("closes", (s, row["close"].copy()))
        self._bars_emitted += 1

    def on_stop(self, ctx: Context) -> None:
        ctx.obs.metrics.counter(f"pipeline.{self.name}.bars").inc(
            self._bars_emitted
        )

    def result(self) -> dict:
        return {"bars_emitted": self._bars_emitted}

    def snapshot(self) -> dict:
        return {
            "acc": copy.deepcopy(self._acc),
            "bars_emitted": self._bars_emitted,
            "watermark": self._acc.next_interval,
        }

    def restore(self, state: dict) -> None:
        self._acc = copy.deepcopy(state["acc"])
        self._bars_emitted = state["bars_emitted"]
