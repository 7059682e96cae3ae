"""The Pair Trading Strategy component (Figure 1).

Joins the two analytics streams — bar closes ("Quotes & Prices") and
correlation matrices — and steps every (pair, parameter set) cell of an
interval at once through one :class:`~repro.strategy.engine.CellBank`,
on the batch engine's own definitions (so its trades are the batch's by
construction).  Emits order requests as positions open and close (the
stream the order sink aggregates into baskets) and trade records as
round trips complete, pair-major, then by parameter set.

Stream alignment: the close row for interval ``s`` and the correlation
matrix for ``s`` arrive on independent paths with no ordering guarantee
between them, so intervals are processed in order once their inputs are
complete.  During the correlation warm-up (the first ``h + M`` intervals,
where ``h`` is the NaN head of a live stream — symbols that have not yet
quoted) no matrix will ever arrive and the strategies step with NaN
correlation, exactly like the batch engine's warm-up.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.faults.policy import DegradePolicy, StaleCorr
from repro.marketminer.component import Component, Context
from repro.strategy.engine import CellBank, Trade
from repro.strategy.params import StrategyParams
from repro.strategy.portfolio import OrderRequest


class PairTradingComponent(Component):
    """Market-wide pair trading over closes + correlation streams.

    With a :class:`~repro.faults.policy.DegradePolicy`, intervals whose
    correlation arrives as :class:`~repro.faults.policy.StaleCorr` are
    stepped in degraded mode: no new entries, and (when the policy says
    ``flatten``) open positions are closed with reason ``DEGRADED``.
    Without a policy a stale matrix is treated as missing correlation
    (NaN), which already suppresses entries.
    """

    def __init__(
        self,
        pairs: list[tuple[int, int]],
        grid: list[StrategyParams],
        smax: int,
        m: int,
        name: str = "pair_trading",
        weight: float = 4.0,
        degrade: DegradePolicy | None = None,
    ):
        super().__init__(
            name=name,
            input_ports=("closes", "corr"),
            output_ports=("orders", "trades"),
            weight=weight,
        )
        if not pairs or not grid:
            raise ValueError("need at least one pair and one parameter set")
        if smax <= 0:
            raise ValueError(f"smax must be positive, got {smax}")
        mset = {p.m for p in grid}
        if mset != {m}:
            raise ValueError(
                f"grid must share the correlation window m={m}, found {mset}"
            )
        self.pairs = [tuple(sorted(p)) for p in pairs]
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("duplicate pairs")
        self.grid = list(grid)
        self.smax = smax
        self.m = m

        #: Optional mapping from this component's local parameter indices
        #: to a study's global ones (set by multi-spec workflow builders;
        #: surfaced through ``result()``).
        self.param_indices: tuple[int, ...] | None = None
        self.degrade = degrade
        self._degraded = 0  # intervals stepped on stale correlation
        self._closes: dict[int, np.ndarray] = {}
        #: Per-interval correlation state: a full (n, n) matrix, or a dict
        #: of pair blocks still being joined from several engines.
        self._corr: dict[int, np.ndarray | dict] = {}
        self._pair_set = set(self.pairs)
        self._pair_i, self._pair_j = np.asarray(self.pairs).T
        self._next_s = 0  # next interval to process
        self._head: int | None = None  # first fully-priced interval
        self._bank: CellBank | None = None  # built at the head interval
        self._trades: dict[tuple[tuple[int, int], int], list[Trade]] = {}
        self._orders_emitted = 0

    # -- message handling ----------------------------------------------------

    def on_message(self, ctx: Context, port: str, payload) -> None:
        s, value = payload
        if port == "closes":
            self._closes[s] = np.asarray(value, dtype=float)
        elif isinstance(value, StaleCorr):
            # A re-served last-good matrix; kept wrapped so the step
            # logic knows this interval runs in degraded mode.
            self._corr[s] = value
        elif isinstance(value, dict):
            # A pair block from one of several parallel engines: join.
            current = self._corr.setdefault(s, {})
            if not isinstance(current, dict):
                raise ValueError(
                    f"{self.name}: mixed matrix and block correlation "
                    f"payloads at interval {s}"
                )
            overlap = current.keys() & value.keys()
            if overlap:
                raise ValueError(
                    f"{self.name}: pair blocks overlap on {sorted(overlap)}"
                )
            current.update(value)
        else:
            self._corr[s] = np.asarray(value, dtype=float)
        self._advance(ctx)

    def on_stop(self, ctx: Context) -> None:
        self._advance(ctx)
        if self._head is not None and self._next_s < self.smax:
            raise RuntimeError(
                f"{self.name}: stream ended at interval {self._next_s} of "
                f"{self.smax}; upstream lost data"
            )
        m = ctx.obs.metrics
        m.counter(f"pipeline.{self.name}.orders").inc(self._orders_emitted)
        m.counter(f"pipeline.{self.name}.trades").inc(
            sum(len(t) for t in self._trades.values())
        )
        m.counter(f"pipeline.{self.name}.strategies").inc(len(self._trades))
        if self.degrade is not None:
            m.counter(f"pipeline.{self.name}.degraded_intervals").inc(
                self._degraded
            )

    def on_pause(self, ctx: Context) -> None:
        # Epoch boundary: drain buffered intervals but skip the
        # end-of-session completeness check and summary counters — the
        # stream resumes after restore().
        self._advance(ctx)

    # -- interval processing ----------------------------------------------------

    def _corr_expected_from(self) -> int | None:
        """First interval for which a correlation matrix will arrive."""
        if self._head is None:
            return None
        return self._head + self.m

    def _advance(self, ctx: Context) -> None:
        while self._next_s < self.smax:
            s = self._next_s
            closes = self._closes.get(s)
            if closes is None:
                return
            if self._head is None:
                if not np.all(np.isfinite(closes)):
                    # NaN head: consume and skip.
                    del self._closes[s]
                    self._next_s += 1
                    continue
                self._head = s
                self._build_strategies()
            expected_from = self._corr_expected_from()
            assert expected_from is not None
            if s >= expected_from and not self._corr_complete(s):
                return  # correlation for s still in flight
            corr = self._corr.pop(s, None)
            del self._closes[s]
            self._next_s += 1
            self._step_all(ctx, s, closes, corr)

    def _corr_complete(self, s: int) -> bool:
        value = self._corr.get(s)
        if value is None:
            return False
        if isinstance(value, dict):
            return self._pair_set <= value.keys()
        return True

    def _build_strategies(self) -> None:
        assert self._head is not None
        self._bank = CellBank(self.pairs, self.grid, self.smax - self._head)
        self._trades = {
            (pair, k): [] for pair in self.pairs for k in range(len(self.grid))
        }

    def _corr_row(self, corr: np.ndarray | dict | None) -> np.ndarray:
        """One correlation per pair, NaN for a missing (warm-up) matrix."""
        if corr is None:
            return np.full(len(self.pairs), np.nan)
        if isinstance(corr, dict):
            return np.array([corr[pair] for pair in self.pairs], dtype=float)
        return corr[self._pair_i, self._pair_j]

    def _step_all(
        self,
        ctx: Context,
        s: int,
        closes: np.ndarray,
        corr: np.ndarray | dict | StaleCorr | None,
    ) -> None:
        assert self._head is not None and self._bank is not None
        s_local = s - self._head
        stale = isinstance(corr, StaleCorr)
        if stale:
            self._degraded += 1
            ctx.obs.metrics.counter(
                f"pipeline.{self.name}.stale_intervals"
            ).inc()
        if stale and self.degrade is not None and self.degrade.flatten:
            events = self._bank.flatten(s_local, closes)
        else:
            # A degraded (or warm-up) interval steps with NaN correlation,
            # which blocks the entry signal by construction.
            events = self._bank.step(
                s_local, closes, self._corr_row(None if stale else corr)
            )
        for c, trade in events:
            pair, k = self._bank.cell(c)
            # Emit under the study-global parameter index so order
            # sinks shared by several spec strategies never collide.
            k_out = self.param_indices[k] if self.param_indices else k
            if trade is not None:
                self._trades[(pair, k)].append(trade)
                ctx.emit("trades", (pair, k_out, trade))
                legs = (trade.long_leg, trade.n_long, trade.n_short)
                self._emit_orders(ctx, "exit", s, pair, k_out, legs, closes)
            else:
                legs = self._bank.entry(c)
                self._emit_orders(ctx, "entry", s, pair, k_out, legs, closes)

    def _emit_orders(self, ctx, kind, s, pair, k, legs, closes) -> None:
        """Both legs of an ``entry`` or ``exit``, at the interval's closes."""
        long_leg, n_long, n_short = legs
        sign = 1 if kind == "entry" else -1
        long_sym, short_sym = pair[long_leg], pair[1 - long_leg]
        orders = (
            OrderRequest(
                s=s, symbol=long_sym, shares=sign * n_long,
                price=float(closes[long_sym]), pair=pair, param_index=k,
            ),
            OrderRequest(
                s=s, symbol=short_sym, shares=-sign * n_short,
                price=float(closes[short_sym]), pair=pair, param_index=k,
            ),
        )
        ctx.emit("orders", (kind, orders))
        self._orders_emitted += 2

    def result(self) -> dict:
        out = {
            "head": self._head,
            "orders_emitted": self._orders_emitted,
            "param_indices": self.param_indices,
            "trades": {key: list(trades) for key, trades in self._trades.items()},
        }
        if self.degrade is not None:
            out["degraded_intervals"] = self._degraded
        return out

    def snapshot(self) -> dict:
        return {
            "closes": copy.deepcopy(self._closes),
            "corr": copy.deepcopy(self._corr),
            "next_s": self._next_s,
            "head": self._head,
            "bank": None if self._bank is None else self._bank.copy(),
            "trades": copy.deepcopy(self._trades),
            "orders_emitted": self._orders_emitted,
            "degraded": self._degraded,
            "watermark": self._next_s,
        }

    def restore(self, state: dict) -> None:
        self._closes = copy.deepcopy(state["closes"])
        self._corr = copy.deepcopy(state["corr"])
        self._next_s = state["next_s"]
        self._head = state["head"]
        bank = state["bank"]
        self._bank = None if bank is None else bank.copy()
        self._trades = copy.deepcopy(state["trades"])
        self._orders_emitted = state["orders_emitted"]
        self._degraded = state["degraded"]

    @staticmethod
    def checkpoint_positions(state: dict) -> tuple[list[dict], int]:
        """Open positions, one row per cell in ``(pair, k)`` order, and the
        number of completed trades, read from a :meth:`snapshot`."""
        bank = state.get("bank")
        cells = [] if bank is None else sorted(
            (bank.cell(c), bank.position(c)) for c in bank.open_cells()
        )
        rows = [
            {"pair": list(pair), "param_set": k, "entry_s": pos.entry_s,
             "long_leg": pos.long_leg, "n_long": pos.n_long,
             "n_short": pos.n_short, "entry_spread": pos.entry_spread,
             "retracement_level": pos.retracement_level}
            for (pair, k), pos in cells
        ]
        n_trades = sum(len(t) for t in state.get("trades", {}).values())
        return rows, n_trades
