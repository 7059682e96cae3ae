"""study_robust / study_pearson: Approach 3 off a warm store, 2 ranks.

Each measured pass builds a fresh :class:`BarProvider` over the store
the set-up ingested and calls ``DistributedBacktester(provider).run``
under ``run_spmd(size=2)`` — every implementation-selecting argument is
left at its default, so the benchmark measures whatever production
defaults to.

The traced run is a *staged replay* written here: the same public
functions in the engine's order with a span around each stage.  It must
return a ``ResultStore`` equal to the engine's, otherwise its numbers
would describe a different program.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from repro.backtest.data import BarProvider
from repro.backtest.distributed import DistributedBacktester
from repro.backtest.results import ResultStore
from repro.backtest.runner import backtest_pair_day
from repro.bars.accumulator import accumulate_bam
from repro.bars.returns import log_returns
from repro.clean.filters import clean_quotes
from repro.corr.measures import CorrelationType
from repro.corr.parallel import ParallelCorrelationEngine
from repro.elastic.sharding import shard_pairs
from repro.mpi.launcher import run_spmd
from repro.store import StoreQuoteSource
from repro.strategy.costs import execution_salt
from repro.strategy.engine import align_corr_series, run_pair_day

from benchmarks.e2e import stats
from benchmarks.e2e.harness import (
    Measured, fastest_round, passes_info, repeat_passes,
)
from benchmarks.e2e.inputs import (
    DELTA_S, Sizes, all_pairs, ingest, make_market, rng_for, table1_grid,
    time_grid,
)
from benchmarks.e2e.trace import Tracer

#: Stage spans of the staged replay, in engine order; their rank-0 sum is
#: the critical path (every stage ends in a collective).
STAGES = (
    "store.scan", "clean.batch", "bars.accumulate", "mpi.bcast",
    "corr.robust", "corr.pearson", "strategy.cells", "mpi.gather_merge",
)


def pingpong_us(round_trips: int = 1000) -> float:
    """Median small-message round trip between two thread ranks, us."""

    def spmd(comm):
        samples = []
        for _ in range(round_trips):
            if comm.rank == 0:
                t0 = time.perf_counter()
                comm.send(0, 1)
                comm.recv(source=1)
                samples.append(time.perf_counter() - t0)
            else:
                comm.recv(source=0)
                comm.send(0, 0)
        return samples

    return stats.median(run_spmd(spmd, size=2)[0]) * 1e6


class StudyWorkload:
    """Both study workloads; ``name`` picks store, bars and grid."""

    tail_percentile = 50
    setup_is_cpu_bound = True

    def __init__(self, name: str, sizes: Sizes, seed: int, stores,
                 tracer: Tracer):
        robust = name == "study_robust"
        self.name = name
        self.sizes = sizes
        self.seed = seed
        self.stores = stores
        self.tracer = tracer
        self.n_symbols = (
            sizes.narrow_symbols if robust else sizes.wide_symbols
        )
        #: The days each pass covers, visited round-robin: study_robust
        #: runs both narrow days every pass, study_pearson one wide day.
        self.day_sets = (
            [list(range(sizes.narrow_days))] if robust
            else [[day] for day in range(sizes.wide_days)]
        )
        self.n_days = sizes.narrow_days if robust else sizes.wide_days
        self.grid_time = time_grid(
            sizes.robust_bars if robust else sizes.pearson_bars
        )
        self.param_grid = table1_grid(sizes, pearson_only=not robust)
        self.pairs = all_pairs(self.n_symbols)
        self.expected_cells = (
            len(self.pairs) * len(self.param_grid) * len(self.day_sets[0])
        )
        self.digest = ""
        #: Diagnostics the traced run prints beside its numbers.
        self.notes: list[str] = []
        self.ingested = None
        self.source = None
        self._passes = 0
        #: First measured store per day set: a repeat must reproduce it
        #: and :meth:`verify` puts it through the oracle.
        self._reference: dict[tuple, ResultStore] = {}

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Ingest the store and run one warm-up pass (block cache, imports)."""
        market = make_market(self.seed, self.n_symbols, self.sizes)
        self.ingested = ingest(
            market, self.n_days, self.stores.fresh(), self.tracer
        )
        self.digest = self.ingested.digest
        self.source = StoreQuoteSource(self.ingested.reader)
        self._passes = 0
        self._reference = {}
        for day in range(self.n_days):  # fill the block cache to its budget
            self.source.quotes(day)
        self.engine_pass(self.day_sets[-1])

    def close(self) -> None:
        self.source = self.ingested = None

    def next_days(self) -> list[int]:
        """The day set of the next pass (round-robin)."""
        days = self.day_sets[self._passes % len(self.day_sets)]
        self._passes += 1
        return days

    # -- the program under test ----------------------------------------------

    def engine_pass(self, days: list[int]) -> tuple[ResultStore, float]:
        """Inputs ready -> merged ResultStore on rank 0, and its wall."""
        t0 = time.perf_counter()
        provider = BarProvider(self.source, self.grid_time)
        backtester = DistributedBacktester(provider)
        store = run_spmd(
            lambda comm: backtester.run(
                comm, self.pairs, self.param_grid, days
            ),
            size=2,
        )[0]
        return store, time.perf_counter() - t0

    def measure(self, seconds: float) -> Measured:
        attempted = failed = 0
        trades: list[int] = []

        def one_pass():
            nonlocal attempted, failed
            days = self.next_days()
            store, wall = self.engine_pass(days)
            compared, wrong = self._check_pass(days, store)
            attempted += compared
            failed += wrong
            trades.append(store.n_trades)
            return wall

        inputs = len(self.day_sets)
        passes = repeat_passes(one_pass, seconds, inputs)
        round_s = fastest_round(passes, inputs)
        return Measured(
            unit="cells",
            passes=[(self.expected_cells * inputs, round_s)],
            # The wait for a result is one whole pass.
            latencies_ms=[round_s / inputs * 1e3],
            attempted=attempted,
            failed=failed,
            info={
                "cells per pass": self.expected_cells,
                "day sets visited in turn": inputs,
                "trades per pass": trades,
                **passes_info(passes),
            },
        )

    def _check_pass(self, days: list[int], store: ResultStore) -> tuple[int, int]:
        """``(cells compared, cells wrong)`` of one pass's store.

        The first store on a day set becomes its reference, which
        :meth:`verify` samples through the oracle once the window is
        over; any later store on those days is compared with it cell by
        cell.  A missing cell is a compared cell that was wrong.
        """
        missing = abs(self.expected_cells - len(store))
        reference = self._reference.setdefault(tuple(days), store)
        if missing or store is reference:
            return missing, missing
        if store == reference:
            return self.expected_cells, 0
        return self.expected_cells, sum(
            1
            for pair in self.pairs
            for k in range(len(self.param_grid))
            for day in days
            if not np.array_equal(
                store.cell(pair, k, day), reference.cell(pair, k, day)
            )
        )

    # -- oracle --------------------------------------------------------------

    def verify(self) -> tuple[int, int]:
        """Recompute a seeded pair sample of every day set's reference
        store through ``backtest_pair_day``.

        The Approach-2 job computes its own correlation from prices the
        oracle derives straight from the synthetic market (not the
        store), so it shares neither the engine's correlation path nor
        its data path.  Equality is exact.  Every measured pass is
        either a reference or was compared with one in full
        (:meth:`_check_pass`), so ``attempted`` counts compared cells only.
        """
        rng = rng_for(self.seed, 3)
        idx = rng.choice(
            len(self.pairs),
            size=min(self.sizes.oracle_pairs, len(self.pairs)),
            replace=False,
        )
        provider = BarProvider(self.ingested.market, self.grid_time)
        attempted = failed = 0
        for days, store in self._reference.items():
            day = int(rng.choice(days))
            prices = provider.prices(day)
            for i, j in (self.pairs[x] for x in sorted(idx)):
                for k, params in enumerate(self.param_grid):
                    trades = backtest_pair_day(
                        prices[:, [i, j]], params,
                        salt=execution_salt((i, j), k),
                    )
                    attempted += 1
                    expect = np.asarray([t.ret for t in trades], dtype=float)
                    if not (
                        store.has((i, j), k, day)
                        and np.array_equal(store.cell((i, j), k, day), expect)
                    ):
                        failed += 1
        return attempted, failed

    # -- traced run ----------------------------------------------------------

    def staged_pass(
        self, days: list[int], run_id: str
    ) -> tuple[ResultStore, dict]:
        """Approach 3 replayed stage by stage, spans on rank 0."""
        tracer = self.tracer
        silent = Tracer(enabled=False)
        n = self.n_symbols
        pairs, grid = self.pairs, self.param_grid
        cutoff = self.grid_time.smax * DELTA_S
        specs = sorted(
            {(p.m, p.ctype) for p in grid}, key=lambda s: (s[0], s[1].value)
        )
        facts = {"rows": 0, "rejected": 0, "cell_us": [], "windows": 0}

        def spmd(comm):
            root = comm.rank == 0
            t = tracer if root else silent
            store = ResultStore()
            mine = shard_pairs(pairs, comm.size)[comm.rank]
            with t.span("staged", run_id):
                for day in days:
                    bundle = None
                    if root:
                        with t.span("store.scan"):
                            quotes = self.source.quotes(day)
                        quotes = quotes[quotes["t"] < cutoff]
                        with t.span("clean.batch"):
                            quotes, cleaned = clean_quotes(quotes, n)
                        with t.span("bars.accumulate"):
                            prices = accumulate_bam(quotes, self.grid_time, n)
                            returns = log_returns(prices)
                        facts["rows"] += cleaned.total
                        facts["rejected"] += cleaned.total - cleaned.accepted
                        bundle = (prices, returns)
                    with t.span("mpi.bcast"):
                        prices, returns = comm.bcast(bundle, root=0)
                    smax = prices.shape[0]
                    series = {}
                    for m, ctype in specs:
                        robust = ctype != CorrelationType.PEARSON
                        name = "corr.robust" if robust else "corr.pearson"
                        with t.span(name):
                            series[(m, ctype)] = ParallelCorrelationEngine(
                                ctype, None
                            ).pair_series(comm, returns, m, pairs)
                        if root and robust:
                            facts["windows"] += (smax - m) * len(pairs)
                    with t.span("strategy.cells"):
                        for i, j in mine:
                            pair_prices = prices[:, [i, j]]
                            for k, params in enumerate(grid):
                                c0 = time.thread_time()
                                corr = align_corr_series(
                                    series[(params.m, params.ctype)][(i, j)],
                                    smax, params.m,
                                )
                                trades = run_pair_day(
                                    pair_prices, corr, params,
                                    salt=execution_salt((i, j), k),
                                )
                                if root:
                                    facts["cell_us"].append(
                                        (time.thread_time() - c0) * 1e6
                                    )
                                store.add(
                                    (i, j), k, day, [tr.ret for tr in trades]
                                )
                with t.span("mpi.gather_merge"):
                    partials = comm.gather(store, root=0)
                    merged = ResultStore.merged(partials) if root else None
                    merged = comm.bcast(merged, root=0)
            return merged

        return run_spmd(spmd, size=2)[0], facts

    def layers(self, seconds: float) -> tuple[dict, int, int]:
        """Alternate untraced engine passes with staged replays."""
        tracer = self.tracer
        engine_walls: list[float] = []
        staged_walls: list[float] = []
        per_stage: dict[str, list[float]] = {name: [] for name in STAGES}
        attempted = failed = 0
        # Counts (rows, windows, trades) are reported from the first
        # round, which is always the same day set, so they repeat exactly
        # however many rounds fit; times are medians over the rounds.
        firsts: list = []

        def one_round():
            nonlocal attempted, failed
            days = self.next_days()
            store, wall = self.engine_pass(days)
            engine_walls.append(wall)
            run_id = f"staged{len(staged_walls)}"
            t0 = time.perf_counter()
            staged, facts = self.staged_pass(days, run_id)
            staged_walls.append(time.perf_counter() - t0)
            # The engine's store first, so the replay is compared with it.
            for result in (store, staged):
                compared, wrong = self._check_pass(days, result)
                attempted += compared
                failed += wrong
            if not firsts:
                firsts.extend((facts, store))
            for name in STAGES:
                per_stage[name].append(tracer.total(name, run_id))
            return wall + staged_walls[-1]

        repeat_passes(one_round, seconds)
        replay_differs = failed > 0
        oracle_attempted, oracle_failed = self.verify()
        facts, first_store = firsts
        stage = {name: stats.median(v) for name, v in per_stage.items()}
        rounds = range(len(engine_walls))
        # Per round, so an engine pass is only ever compared with the
        # staged replay of the same days.
        unattributed = stats.median([
            (engine_walls[r] - sum(per_stage[name][r] for name in STAGES))
            / engine_walls[r]
            for r in rounds
        ])
        overhead = stats.median([
            (staged_walls[r] - engine_walls[r]) / engine_walls[r]
            for r in rounds
        ])
        critical = sum(stage.values())
        corr_s = stage["corr.robust"] + stage["corr.pearson"]
        days_per_pass = len(self.day_sets[0])
        bars = self.grid_time.smax * self.n_symbols * days_per_pass
        rows = facts["rows"]
        ingest_s = tracer.total("store.ingest")
        values = {
            "taq.synthetic_quotes_per_s":
                self.ingested.rows / tracer.total("taq.synthetic"),
            "store.ingest_rows_per_s": self.ingested.rows / ingest_s,
            "store.scan_s": stage["store.scan"],
            "store.scan_rows_per_s": (
                self.ingested.rows * days_per_pass / self.n_days
                / stage["store.scan"]
            ),
            "clean.batch_s": stage["clean.batch"],
            "clean.rows_per_s": rows / stage["clean.batch"],
            "clean.rejected_share": facts["rejected"] / rows,
            "bars.accumulate_s": stage["bars.accumulate"],
            "bars.bars_per_s": bars / stage["bars.accumulate"],
            "corr.robust_s": stage["corr.robust"],
            "corr.pearson_s": stage["corr.pearson"],
            "corr.robust_windows_per_s": (
                facts["windows"] / stage["corr.robust"]
                if facts["windows"] else 0.0
            ),
            "corr.share": corr_s / critical,
            "strategy.cells_s": stage["strategy.cells"],
            "strategy.cell_p50_us": stats.median(facts["cell_us"]),
            "strategy.trades": first_store.n_trades,
            "mpi.bcast_s": stage["mpi.bcast"],
            "mpi.gather_merge_s": stage["mpi.gather_merge"],
            "mpi.pingpong_us": pingpong_us(),
            "backtest.result_bytes": len(pickle.dumps(first_store)),
            "backtest.unattributed_share": unattributed,
            "trace_overhead_share": overhead,
        }
        self.notes.append(
            f"staged replay "
            + ("DIFFERS FROM THE ENGINE" if replay_differs else "== engine")
            + f" over {len(rounds)} rounds; unattributed "
            f"{unattributed:+.3f}: the trace "
            + ("explains the run" if abs(unattributed) <= 0.10
               else "DOES NOT EXPLAIN THE RUN (|x| > 0.10)")
        )
        robust = self.name == "study_robust"
        share = corr_s / critical
        self.notes.append(
            f"corr.share {share:.3f}, wanted "
            + (">= 0.7" if robust else "<= 0.1") + ": "
            + ("ok" if (share >= 0.7 if robust else share <= 0.1)
               else "OFF - resize the workload")
        )
        return values, attempted + oracle_attempted, failed + oracle_failed
