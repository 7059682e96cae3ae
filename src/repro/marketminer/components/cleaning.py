"""Streaming quote cleaning: the TCP-like filter as a pipeline stage.

Raw data "needs to be cleaned before being analyzed" (paper §III); in the
pipeline this happens between the adapter and the bar accumulator: each
interval's batch goes through :func:`~repro.clean.filters.filter_quotes`
— the loop :func:`~repro.clean.filters.clean_quotes` runs over a day —
with a :class:`~repro.clean.filters.FilterBank` that lives as long as the
session, preserving the per-interval message shape.
"""

from __future__ import annotations

from repro.clean.filters import FilterBank, filter_quotes
from repro.marketminer.component import Component, Context


class CleaningComponent(Component):
    """Per-symbol TCP-like filtering of interval quote batches.

    Input ``quotes``: ``(s, records)``; output ``quotes``: same shape,
    with crossed quotes and filter-rejected quotes removed.  ``result()``
    reports the disposition counts.
    """

    def __init__(
        self,
        n_symbols: int,
        name: str = "cleaning",
        k: float = 6.0,
        warmup: int = 20,
    ):
        super().__init__(
            name=name, input_ports=("quotes",), output_ports=("quotes",)
        )
        self._bank = FilterBank(n_symbols, k=k, warmup=warmup)
        self._total = 0
        self._rejected_outlier = 0
        self._rejected_crossed = 0

    def on_message(self, ctx: Context, port: str, payload) -> None:
        s, records = payload
        keep, outlier, crossed = filter_quotes(records, self._bank)
        self._total += int(records.size)
        self._rejected_outlier += outlier
        self._rejected_crossed += crossed
        ctx.emit("quotes", (s, records[keep]))

    def on_stop(self, ctx: Context) -> None:
        m = ctx.obs.metrics
        m.counter(f"pipeline.{self.name}.quotes_seen").inc(self._total)
        m.counter(f"pipeline.{self.name}.rejected_outlier").inc(
            self._rejected_outlier
        )
        m.counter(f"pipeline.{self.name}.rejected_crossed").inc(
            self._rejected_crossed
        )

    def result(self) -> dict:
        return {
            "total": self._total,
            "rejected_outlier": self._rejected_outlier,
            "rejected_crossed": self._rejected_crossed,
        }

    def snapshot(self) -> dict:
        return {
            "bank": self._bank.copy(),
            "total": self._total,
            "rejected_outlier": self._rejected_outlier,
            "rejected_crossed": self._rejected_crossed,
        }

    def restore(self, state: dict) -> None:
        self._bank = state["bank"].copy()
        self._total = state["total"]
        self._rejected_outlier = state["rejected_outlier"]
        self._rejected_crossed = state["rejected_crossed"]
