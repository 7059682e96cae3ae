"""Tests for the Figure-1 component library and full-pipeline session."""

import numpy as np
import pytest

from repro.backtest.data import BarProvider
from repro.backtest.runner import SequentialBacktester
from repro.bars.accumulator import accumulate_ohlc
from repro.clean.filters import clean_quotes
from repro.marketminer.component import Context
from repro.marketminer.components.bar_accumulator import BarAccumulatorComponent
from repro.marketminer.components.cleaning import CleaningComponent
from repro.marketminer.components.collectors import (
    DbCollector,
    FileCollector,
    LiveCollector,
    QuoteDatabase,
)
from repro.marketminer.graph import Workflow
from repro.marketminer.scheduler import WorkflowRunner
from repro.marketminer.session import build_figure1_workflow, run_figure1_session
from repro.strategy.params import StrategyParams
from repro.strategy.portfolio import RiskLimits
from repro.taq.io import write_taq_csv
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.types import QUOTE_DTYPE
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid
from tests.test_bars_accumulator import interval_batches
from tests.test_marketminer_graph import Sink

PARAMS = StrategyParams(m=30, w=15, y=5, rt=15, hp=10, st=5, d=0.002)


@pytest.fixture(scope="module")
def market():
    cfg = SyntheticMarketConfig(
        trading_seconds=23_400 // 4, quote_rate=0.95, outlier_prob=1e-3
    )
    return SyntheticMarket(default_universe(6), cfg, seed=21)


@pytest.fixture(scope="module")
def grid_time(market):
    return TimeGrid(30, trading_seconds=market.config.trading_seconds)


def collect_quotes(collector, grid_time):
    """Run a collector alone and gather its emitted interval batches."""
    wf = Workflow()
    wf.add(collector)
    sink = Sink()
    wf.add(sink)
    wf.connect(collector.name, "quotes", "sink", "in")
    from repro import mpi

    def spmd(comm):
        return WorkflowRunner(wf).run(comm)

    return mpi.run_spmd(spmd, size=1)[0]["sink"]


class TestCollectors:
    def test_live_collector_emits_every_interval(self, market, grid_time):
        batches = collect_quotes(LiveCollector(market, grid_time), grid_time)
        assert len(batches) == grid_time.smax
        assert [s for s, _ in batches] == list(range(grid_time.smax))

    def test_live_collector_batches_partition_day(self, market, grid_time):
        batches = collect_quotes(LiveCollector(market, grid_time), grid_time)
        total = sum(recs.size for _, recs in batches)
        cutoff = grid_time.smax * grid_time.delta_s
        quotes = market.quotes(0)
        assert total == int((quotes["t"] < cutoff).sum())
        for s, recs in batches:
            if recs.size:
                assert np.all(recs["t"] >= s * grid_time.delta_s)
                assert np.all(recs["t"] < (s + 1) * grid_time.delta_s)

    def test_file_collector_matches_live(self, market, grid_time, tmp_path):
        path = tmp_path / "day0.csv"
        write_taq_csv(path, market.quotes(0), market.universe)
        live = collect_quotes(LiveCollector(market, grid_time), grid_time)
        filed = collect_quotes(
            FileCollector(path, market.universe, grid_time), grid_time
        )
        assert len(live) == len(filed)
        for (s1, r1), (s2, r2) in zip(live, filed):
            assert s1 == s2
            np.testing.assert_array_equal(r1["symbol"], r2["symbol"])
            np.testing.assert_allclose(r1["bid"], r2["bid"])

    def test_db_collector_round_trip(self, market, grid_time):
        db = QuoteDatabase()
        db.store(0, market.quotes(0))
        assert db.days == [0]
        live = collect_quotes(LiveCollector(market, grid_time), grid_time)
        from_db = collect_quotes(DbCollector(db, grid_time, day=0), grid_time)
        for (s1, r1), (s2, r2) in zip(live, from_db):
            np.testing.assert_array_equal(r1, r2)

    def test_db_missing_day(self):
        with pytest.raises(KeyError):
            QuoteDatabase().load(3)


def drive(component, batches):
    """Feed ``(s, records)`` messages to one component through a stub
    :class:`Context`; returns what it emitted as ``{port: [payload]}``."""
    out = {port: [] for port in component.output_ports}
    ctx = Context(component.name, lambda _name, port, payload: out[port].append(payload))
    for batch in batches:
        component.on_message(ctx, "quotes", batch)
    return out


def dirty_day(market, grid_time):
    """The market's day with crossed quotes added to its outliers, cut
    into the collectors' interval batches."""
    quotes = market.quotes(0)
    quotes = quotes[quotes["t"] < grid_time.smax * grid_time.delta_s].copy()
    swap = np.arange(5, quotes.size, 211)
    quotes["bid"][swap], quotes["ask"][swap] = (
        quotes["ask"][swap], quotes["bid"][swap],
    )
    return quotes, interval_batches(quotes, grid_time)


class TestStagesAreTheirKernels:
    """A pipeline stage is its batch kernel fed one interval."""

    def test_cleaning_emits_clean_quotes_survivors_across_a_restore(
        self, market, grid_time
    ):
        quotes, batches = dirty_day(market, grid_time)
        expected, stats = clean_quotes(quotes, len(market.universe))
        assert stats.rejected_outlier > 0 and stats.rejected_crossed > 0

        half = len(batches) // 2
        first = CleaningComponent(len(market.universe))
        emitted = drive(first, batches[:half])["quotes"]
        second = CleaningComponent(len(market.universe))
        second.restore(first.snapshot())
        drive(first, batches[half:half + 3])  # the original moves on alone
        emitted += drive(second, batches[half:])["quotes"]

        assert [s for s, _ in emitted] == list(range(grid_time.smax))
        survivors = np.concatenate([recs for _, recs in emitted])
        assert survivors.tobytes() == expected.tobytes()
        assert second.result() == {
            "total": stats.total,
            "rejected_outlier": stats.rejected_outlier,
            "rejected_crossed": stats.rejected_crossed,
        }

    def test_cleaning_refuses_a_symbol_outside_the_universe(self, market):
        batch = market.quotes(0)[:50].copy()
        batch["symbol"][17] = len(market.universe)
        with pytest.raises(ValueError, match="symbol indices"):
            drive(CleaningComponent(len(market.universe)), [(0, batch)])

    def test_bars_equal_the_batch_accumulator(self, market, grid_time):
        n = len(market.universe)
        quotes, batches = dirty_day(market, grid_time)
        out = drive(BarAccumulatorComponent(grid_time, n), batches)
        rows = np.stack([row for _, row in out["bars"]])
        batch = accumulate_ohlc(quotes, grid_time, n)
        quoted = np.cumsum(batch["count"], axis=0) > 0
        assert quoted[1:].all()  # every symbol quotes in the first bar
        assert rows[quoted].tobytes() == batch[quoted].tobytes()
        for (s, closes), row in zip(out["closes"], rows):
            assert closes.tobytes() == row["close"].tobytes()

    def test_bars_refuse_an_interval_out_of_order(self, market, grid_time):
        _, batches = dirty_day(market, grid_time)
        with pytest.raises(ValueError, match="interval 1 is a future interval"):
            drive(
                BarAccumulatorComponent(grid_time, len(market.universe)),
                [batches[1]],
            )

    def test_one_kernel_call_per_message(self, monkeypatch):
        """The per-quote Python path cannot come back unnoticed: a
        10 000-quote interval is one call of each stage's kernel."""
        from repro.bars import accumulator
        from repro.marketminer.components import cleaning

        rng = np.random.default_rng(5)
        records = np.zeros(10_000, dtype=QUOTE_DTYPE)
        records["t"] = np.sort(rng.uniform(0.0, 30.0, records.size))
        records["symbol"] = rng.integers(0, 8, records.size)
        records["bid"] = 50.0 + rng.normal(0.0, 0.01, records.size)
        records["ask"] = records["bid"] + 0.02
        records["bid_size"] = records["ask_size"] = 1

        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls.append((name, args[0].size))
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        spy(cleaning, "filter_quotes")
        spy(accumulator, "_ohlc_cells")
        grid = TimeGrid(30, trading_seconds=60)
        kept = drive(CleaningComponent(8), [(0, records)])["quotes"]
        bars = drive(BarAccumulatorComponent(grid, 8), kept)["bars"]
        assert calls == [("filter_quotes", 10_000), ("_ohlc_cells", 10_000)]
        assert bars[0][1]["count"].sum() == 10_000


class NanQuoteMarket:
    """A market whose day carries one NaN bid, as a bad feed would."""

    def __init__(self, market, grid_time):
        self.universe = market.universe
        self.config = market.config
        quotes = market.quotes(0).copy()
        # The last quote of its symbol in interval 40: the bar's close.
        in_bar = np.flatnonzero(
            (quotes["t"] // grid_time.delta_s == 40) & (quotes["symbol"] == 2)
        )
        quotes["bid"][in_bar[-1]] = np.nan
        self._quotes = quotes

    def quotes(self, day):
        return self._quotes.copy()


class TestNonFiniteQuoteIsNamedAtTheAdapter:
    """``bid <= 0`` is false for NaN: it used to pass validation, be
    forward-filled over by the backtests and kill the streaming session at
    the close.  Every adapter now refuses it by name."""

    def test_database_refuses_to_store_it(self, market, grid_time):
        bad = NanQuoteMarket(market, grid_time)
        with pytest.raises(ValueError, match="positive and finite"):
            QuoteDatabase().store(0, bad.quotes(0))

    @pytest.mark.parametrize("clean", [True, False])
    def test_bar_provider_refuses_it_with_cleaning_on_and_off(
        self, market, grid_time, clean
    ):
        provider = BarProvider(
            NanQuoteMarket(market, grid_time), grid_time, clean=clean
        )
        with pytest.raises(ValueError, match="positive and finite"):
            provider.prices(0)

    def test_file_collector_names_the_line(self, market, grid_time, tmp_path):
        path = tmp_path / "day0.csv"
        quotes = market.quotes(0)[:200]
        write_taq_csv(path, quotes, market.universe)
        lines = path.read_text().splitlines()
        fields = lines[120].split(",")
        fields[2] = "nan"
        lines[120] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(Exception, match=rf"{path}:121: bid must be finite"):
            collect_quotes(
                FileCollector(path, market.universe, grid_time), grid_time
            )


class TestFigure1Workflow:
    def test_topology_matches_figure(self, market, grid_time):
        wf = build_figure1_workflow(
            market, grid_time, [(0, 1)], [PARAMS], day=0
        )
        names = set(wf.components)
        assert names == {
            "live_collector",
            "cleaning",
            "bar_accumulator",
            "technical",
            "correlation",
            "pair_trading",
            "order_sink",
        }
        wf.validate()

    def test_rejects_mixed_specs(self, market, grid_time):
        with pytest.raises(ValueError, match="one correlation engine"):
            build_figure1_workflow(
                market,
                grid_time,
                [(0, 1)],
                [PARAMS, PARAMS.with_ctype("maronna")],
            )

    def test_rejects_delta_mismatch(self, market, grid_time):
        bad = StrategyParams(
            delta_s=15, m=30, w=15, y=5, rt=15, hp=10, st=5, d=0.002
        )
        with pytest.raises(ValueError, match="delta_s"):
            build_figure1_workflow(market, grid_time, [(0, 1)], [bad])

    def test_no_clean_variant(self, market, grid_time):
        wf = build_figure1_workflow(
            market, grid_time, [(0, 1)], [PARAMS], clean=False
        )
        assert "cleaning" not in wf.components
        wf.validate()


class TestFullSession:
    @pytest.fixture(scope="class")
    def session_results(self, market, grid_time):
        pairs = [(0, 1), (2, 3), (0, 4)]
        wf = build_figure1_workflow(market, grid_time, pairs, [PARAMS], day=0)
        return run_figure1_session(wf, size=3), pairs

    def test_every_interval_processed(self, session_results, grid_time):
        results, _ = session_results
        assert results["bar_accumulator"]["bars_emitted"] == grid_time.smax
        assert results["technical"]["returns_emitted"] == grid_time.smax - 1

    def test_correlation_matrices_after_warmup(self, session_results, grid_time):
        results, _ = session_results
        expected = (grid_time.smax - 1) - PARAMS.m + 1
        assert results["correlation"]["matrices_emitted"] == expected

    def test_trades_recorded_per_pair(self, session_results):
        results, pairs = session_results
        trades = results["pair_trading"]["trades"]
        assert set(trades) == {(p, 0) for p in pairs}

    def test_order_sink_balanced(self, session_results):
        results, _ = session_results
        sink = results["order_sink"]
        assert sink["open_pairs_at_close"] == 0
        assert sink["gross_notional_at_close"] == pytest.approx(0.0, abs=1e-9)
        n_trades = sum(
            len(v) for v in results["pair_trading"]["trades"].values()
        )
        # Two legs per entry + two per exit.
        assert sink["accepted_orders"] == 4 * n_trades

    def test_trade_tape_matches_trades(self, session_results):
        results, _ = session_results
        tape = results["order_sink"]["trade_tape"]
        n_trades = sum(
            len(v) for v in results["pair_trading"]["trades"].values()
        )
        assert len(tape) == n_trades

    def test_pipeline_matches_batch_backtester(self, market, grid_time, session_results):
        """The live pipeline reproduces the batch engines' trades exactly
        when every symbol quotes in interval 0 (no NaN head)."""
        results, pairs = session_results
        assert results["pair_trading"]["head"] == 0
        provider = BarProvider(market, grid_time, clean=True)
        store = SequentialBacktester(provider).run(pairs, [PARAMS], [0])
        for pair in pairs:
            pipeline_rets = [
                t.ret for t in results["pair_trading"]["trades"][(pair, 0)]
            ]
            np.testing.assert_allclose(
                pipeline_rets, store.cell(pair, 0, 0), atol=1e-12
            )

    def test_risk_limits_veto_entries(self, market, grid_time):
        wf = build_figure1_workflow(
            market,
            grid_time,
            [(0, 1), (2, 3), (0, 4)],
            [PARAMS],
            day=0,
            limits=RiskLimits(max_open_pairs=1),
        )
        results = run_figure1_session(wf, size=2)
        sink = results["order_sink"]
        total_entries = sum(
            len(v) for v in results["pair_trading"]["trades"].values()
        )
        if total_entries > 1:
            assert sink["entries_vetoed"] >= 0
        assert sink["open_pairs_at_close"] == 0
