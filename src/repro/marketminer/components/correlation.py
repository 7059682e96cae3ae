"""The (Parallel) Correlation Engine as a pipeline component (Figure 1).

Wraps an :class:`~repro.corr.online.OnlineCorrelationEngine`: consumes
return rows, and once the sliding window is full emits on ``corr`` after
every push.  Declared heavy (``weight``) so the placement heuristic gives
it a rank of its own when ranks are available — the paper's "Parallel
Correlation Engine (M=100)" box.

Two emission modes:

* **full matrix** (``pairs=None``): payload ``(s, matrix)`` — the whole
  market-wide matrix from one engine instance;
* **pair block** (``pairs`` given): payload ``(s, {pair: value})`` — only
  this engine's block.  Several block engines, each fed the same return
  stream and each owning a partition of the pairs, *are* the parallel
  correlation engine: the strategy component joins their blocks per
  interval.  :func:`repro.marketminer.session.build_figure1_workflow`
  wires this with ``n_corr_engines > 1``.

With a :class:`~repro.faults.policy.DegradePolicy` attached the engine
also degrades gracefully: when the return stream skips intervals (an
input block missed its deadline upstream), the last-good emission is
re-served for each missing interval, wrapped in
:class:`~repro.faults.policy.StaleCorr` so downstream components can
tell real matrices from stale ones.  Without a policy (the default) a
gap simply propagates — bitwise-identical to the pre-fault behaviour.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.corr.maronna import MaronnaConfig
from repro.corr.measures import CorrelationType, check_pairs, corr_matrix
from repro.corr.online import OnlineCorrelationEngine
from repro.faults.policy import DegradePolicy, StaleCorr
from repro.marketminer.component import Component, Context


class CorrelationEngineComponent(Component):
    """Online sliding-window correlation over the return stream."""

    def __init__(
        self,
        n_symbols: int,
        m: int,
        ctype: CorrelationType | str = CorrelationType.PEARSON,
        config: MaronnaConfig | None = None,
        name: str = "correlation",
        weight: float = 8.0,
        pairs: list[tuple[int, int]] | None = None,
        degrade: DegradePolicy | None = None,
    ):
        super().__init__(
            name=name,
            input_ports=("returns",),
            output_ports=("corr",),
            weight=weight,
        )
        self._engine = OnlineCorrelationEngine(n_symbols, m, ctype, config)
        self._config = config
        if pairs is not None:
            pairs = check_pairs([sorted(p) for p in pairs], n_symbols)
            if len(set(pairs)) != len(pairs):
                raise ValueError("duplicate pairs")
        self.pairs = pairs
        self.degrade = degrade
        self._matrices_emitted = 0
        self._last_s: int | None = None
        self._last_good = None
        self._last_good_s: int | None = None
        self._stale_served = 0

    @property
    def m(self) -> int:
        return self._engine.m

    @property
    def ctype(self) -> CorrelationType:
        return self._engine.ctype

    def _serve_stale(self, ctx: Context, s: int) -> None:
        if self._last_good is None:
            return  # nothing good yet (warm-up): nothing to serve
        age = s - self._last_good_s
        policy = self.degrade
        if policy.max_stale_age is not None and age > policy.max_stale_age:
            return  # too old to trust: let the gap propagate
        ctx.emit("corr", (s, StaleCorr(self._last_good, age)))
        self._stale_served += 1
        ctx.obs.metrics.counter(
            f"pipeline.{self.name}.stale_served"
        ).inc()

    def on_message(self, ctx: Context, port: str, payload) -> None:
        s, returns_row = payload
        if (
            self.degrade is not None
            and self.degrade.serve_stale
            and self._last_s is not None
        ):
            # Input intervals that never arrived: re-serve the last-good
            # emission, flagged stale, so downstream stays time-aligned.
            for missed in range(self._last_s + 1, s):
                self._serve_stale(ctx, missed)
        self._last_s = s
        self._engine.push(np.asarray(returns_row, dtype=float))
        if not self._engine.ready:
            return
        # The sliding-window update is the pipeline's compute hot spot —
        # timed per interval so the report shows where the rank's CPU went.
        with ctx.obs.metrics.timer(f"pipeline.{self.name}.update.seconds"):
            if self.pairs is None:
                value = self._engine.matrix()
            else:
                partial = corr_matrix(
                    self._engine.window(), self.ctype, self._config,
                    pairs=self.pairs,
                )
                value = {(i, j): float(partial[i, j]) for i, j in self.pairs}
            ctx.emit("corr", (s, value))
        self._last_good = value
        self._last_good_s = s
        self._matrices_emitted += 1

    def on_stop(self, ctx: Context) -> None:
        ctx.obs.metrics.counter(f"pipeline.{self.name}.matrices").inc(
            self._matrices_emitted
        )

    def result(self) -> dict:
        out = {"matrices_emitted": self._matrices_emitted}
        if self.degrade is not None:
            out["stale_served"] = self._stale_served
        return out

    def snapshot(self) -> dict:
        return {
            "engine": copy.deepcopy(self._engine),
            "matrices_emitted": self._matrices_emitted,
            "last_s": self._last_s,
            "last_good": copy.deepcopy(self._last_good),
            "last_good_s": self._last_good_s,
            "stale_served": self._stale_served,
        }

    def restore(self, state: dict) -> None:
        self._engine = copy.deepcopy(state["engine"])
        self._matrices_emitted = state["matrices_emitted"]
        self._last_s = state["last_s"]
        self._last_good = copy.deepcopy(state["last_good"])
        self._last_good_s = state["last_good_s"]
        self._stale_served = state["stale_served"]
