"""Tests for the three backtest architectures and their equivalence.

The load-bearing invariant: Approaches 1 (matrix series), 2 (sequential
per-pair) and 3 (distributed integrated) produce byte-identical result
stores — they are architectures, not algorithms.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro import mpi
from repro.backtest.data import BarProvider
from repro.backtest.distributed import DistributedBacktester
from repro.backtest.matrices import MatrixSeriesBacktester
from repro.backtest.results import ResultStore
from repro.backtest.runner import (
    PAIR_DAY_HIST,
    SequentialBacktester,
    backtest_pair_day,
)
from repro.backtest.sweep import SweepConfig, run_sweep
from repro.corr.batch import batch_pair_series
from repro.corr.measures import CorrelationType
from repro.mpi.inproc import SpmdFailure
from repro.mpi.procs import RemoteRankError
from repro.obs import Obs, attach_to_comm
from repro.strategy.costs import execution_salt
from repro.strategy.engine import align_corr_series, run_pair_day
from repro.strategy.params import StrategyParams
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid
from tests.oracle import reference_pair_series

BASE = StrategyParams(m=30, w=15, y=5, rt=15, hp=10, st=5, d=0.002)


@pytest.fixture(scope="module")
def provider():
    cfg = SyntheticMarketConfig(trading_seconds=23_400 // 4, quote_rate=0.7)
    market = SyntheticMarket(default_universe(5), cfg, seed=404)
    grid = TimeGrid(30, trading_seconds=cfg.trading_seconds)
    return BarProvider(market, grid)


@pytest.fixture(scope="module")
def small_setup(provider):
    pairs = [(0, 1), (0, 2), (1, 3), (2, 4)]
    grid = [
        BASE,
        BASE.with_ctype("maronna"),
        BASE.with_ctype("combined"),
    ]
    days = [0, 1]
    return pairs, grid, days


class TestBarProvider:
    def test_prices_shape_positive(self, provider):
        prices = provider.prices(0)
        assert prices.shape == (provider.smax, 5)
        assert np.all(prices > 0)

    def test_cached(self, provider):
        a = provider.prices(0)
        b = provider.prices(0)
        assert a is b
        provider.clear_cache()
        c = provider.prices(0)
        assert c is not a
        np.testing.assert_array_equal(a, c)

    def test_returns_shape(self, provider):
        assert provider.returns(0).shape == (provider.smax - 1, 5)

    def test_cleaning_changes_prices(self):
        cfg = SyntheticMarketConfig(
            trading_seconds=3600, quote_rate=0.9, outlier_prob=5e-3
        )
        market = SyntheticMarket(default_universe(4), cfg, seed=3)
        grid = TimeGrid(30, trading_seconds=3600)
        dirty = BarProvider(market, grid, clean=False).prices(0)
        cleaned = BarProvider(market, grid, clean=True).prices(0)
        assert not np.allclose(dirty, cleaned)
        # Cleaned bars hug the true mid prices much more tightly.
        truth = market.true_bam_grid(0, grid)
        err_dirty = np.abs(np.log(dirty / truth)).max()
        err_clean = np.abs(np.log(cleaned / truth)).max()
        assert err_clean < err_dirty

    def test_rejects_oversized_grid(self):
        cfg = SyntheticMarketConfig(trading_seconds=600)
        market = SyntheticMarket(default_universe(3), cfg, seed=1)
        with pytest.raises(ValueError):
            BarProvider(market, TimeGrid(30, trading_seconds=1200))


class TestSequential:
    def test_covers_every_cell(self, provider, small_setup):
        pairs, grid, days = small_setup
        store = SequentialBacktester(provider).run(pairs, grid, days)
        assert len(store) == len(pairs) * len(grid) * len(days)
        assert store.pairs == sorted(pairs)

    def test_share_correlation_identical_results(self, provider, small_setup):
        pairs, grid, days = small_setup
        a = SequentialBacktester(provider, share_correlation=False).run(
            pairs, grid, days
        )
        b = SequentialBacktester(provider, share_correlation=True).run(
            pairs, grid, days
        )
        assert a == b

    def test_job_timings_recorded(self, provider, small_setup):
        pairs, grid, days = small_setup
        obs = Obs()
        SequentialBacktester(provider, obs=obs).run(pairs, grid, days)
        hist = obs.metrics.histogram(PAIR_DAY_HIST)
        assert hist.count == len(pairs) * len(grid) * len(days)
        assert all(t >= 0 for t in hist.values)

    def test_backtest_pair_day_self_contained(self, provider):
        prices = provider.prices(0)[:, [0, 1]]
        trades = backtest_pair_day(prices, BASE)
        assert all(t.exit_s > t.entry_s for t in trades)


class TestMatrixSeries:
    def test_memory_accounting(self, provider, small_setup):
        pairs, grid, days = small_setup
        bt = MatrixSeriesBacktester(provider)
        bt.run(pairs, grid, days)
        # One shared (m=30, ctype) spec per treatment, n=5, smax windows.
        n_windows = provider.smax - 1 - 30 + 1
        expected = 3 * n_windows * 5 * 5 * 8
        assert bt.peak_matrix_bytes == expected

    def test_static_estimate_matches_paper_example(self):
        # Delta_s=30 => smax=780; M=100 => "680 such matrices" of 61x61.
        est = MatrixSeriesBacktester.matrix_series_bytes(780, 100, 61)
        assert est == 680 * 61 * 61 * 8

    def test_static_estimate_validates(self):
        with pytest.raises(ValueError):
            MatrixSeriesBacktester.matrix_series_bytes(50, 100, 61)


class TestEquivalence:
    def test_all_three_engines_agree(self, provider, small_setup):
        pairs, grid, days = small_setup
        seq = SequentialBacktester(provider).run(pairs, grid, days)
        shared = SequentialBacktester(provider, share_correlation=True).run(
            pairs, grid, days
        )
        mat = MatrixSeriesBacktester(provider).run(pairs, grid, days)

        def spmd(comm):
            return DistributedBacktester(provider).run(comm, pairs, grid, days)

        dist = mpi.run_spmd(spmd, size=3)[0]
        assert seq == shared
        assert seq == mat
        assert seq == dist

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_distributed_rank_count_invariant(self, provider, small_setup, size):
        pairs, grid, days = small_setup

        def spmd(comm):
            return DistributedBacktester(provider).run(comm, pairs, grid, days)

        results = mpi.run_spmd(spmd, size=size)
        # Every rank holds the same merged store.
        assert all(r == results[0] for r in results)
        assert len(results[0]) == len(pairs) * len(grid) * len(days)


def _oracle_store(provider, pairs, grid, days):
    """The study's store built from ``tests/oracle.py``'s per-window
    series — an answer none of the engines computed."""
    store = ResultStore()
    for day in days:
        prices, returns = provider.prices(day), provider.returns(day)
        for k, params in enumerate(grid):
            block = reference_pair_series(
                returns, params.m, params.ctype, pairs=pairs
            )
            for p, (i, j) in enumerate(pairs):
                corr = align_corr_series(block[:, p], provider.smax, params.m)
                trades = run_pair_day(
                    prices[:, [i, j]], corr, params,
                    salt=execution_salt((i, j), k),
                )
                store.add((i, j), k, day, [t.ret for t in trades])
    return store


def _approach3_counters(provider, pairs, grid, days, size, backend="thread"):
    """An Approach-3 run with obs attached to each rank's communicator (as
    ``run_sweep`` does): the merged store and the counters summed over
    the ranks, ``mpi.*`` included."""

    def spmd(comm):
        local = Obs()
        attach_to_comm(comm, local)
        store = DistributedBacktester(provider).run(comm, pairs, grid, days)
        return store, local.to_dict()["metrics"]["counters"]

    results = mpi.run_spmd(spmd, size=size, backend=backend, default_timeout=30)
    totals: dict[str, int] = {}
    for _, counters in results:
        for name, value in counters.items():
            totals[name] = totals.get(name, 0) + value
    return results[0][0], totals


class TestBatchBackendEquivalence:
    """Every engine's batch-kernel correlations reproduce a store built
    from the per-window oracle — an answer none of the engines computed."""

    @pytest.fixture(scope="class")
    def oracle_store(self, provider, small_setup):
        return _oracle_store(provider, *small_setup)

    def test_sequential_batch(self, provider, small_setup, oracle_store):
        pairs, grid, days = small_setup
        got = SequentialBacktester(provider, share_correlation=True).run(
            pairs, grid, days
        )
        assert got == oracle_store

    def test_matrix_series_batch(self, provider, small_setup, oracle_store):
        pairs, grid, days = small_setup
        got = MatrixSeriesBacktester(provider).run(pairs, grid, days)
        assert got == oracle_store

    @pytest.mark.parametrize("mpi_backend", ["thread", "process"])
    def test_distributed_batch_both_mpi_backends(
        self, provider, small_setup, oracle_store, mpi_backend
    ):
        pairs, grid, days = small_setup

        def spmd(comm):
            return DistributedBacktester(provider).run(comm, pairs, grid, days)

        results = mpi.run_spmd(spmd, size=3, backend=mpi_backend)
        assert all(r == oracle_store for r in results)

    def test_engines_reject_unknown_backend(self, provider):
        """The implementation selector is gone, not merely ignored."""
        for engine in (
            SequentialBacktester, MatrixSeriesBacktester, DistributedBacktester
        ):
            with pytest.raises(TypeError, match="corr_backend"):
                engine(provider, corr_backend="batch")

    def test_engines_reject_profile_options(self, provider):
        """Profiling is ``with SamplingProfiler(obs): engine.run(...)``;
        the per-engine switches are gone, not merely ignored."""
        for engine in (SequentialBacktester, MatrixSeriesBacktester):
            for option in ("profile", "profile_interval"):
                with pytest.raises(TypeError, match=option):
                    engine(provider, **{option: 1})

        def spmd(comm):
            return DistributedBacktester(provider).run(
                comm, [(0, 1)], [BASE], [0], profile=True
            )

        with pytest.raises(SpmdFailure, match="profile"):
            mpi.run_spmd(spmd, size=1)


#: One small study, stated as a sweep so every route can run it.
STUDY = SweepConfig(
    n_symbols=4,
    n_days=2,
    trading_seconds=23_400 // 4,
    seed=404,
    # Maronna and Combined at one window: the shared-correlation routes
    # derive both from one fixed point, the baselines compute each.
    grid=(BASE, BASE.with_ctype("maronna"), BASE.with_ctype("combined")),
)


def _study_parts(provider=None):
    return (
        provider or STUDY.build_provider(),
        list(STUDY.build_universe().pairs()),
        STUDY.build_grid(),
        list(range(STUDY.n_days)),
    )


def _single_process(engine, **options):
    def route(provider=None):
        provider, pairs, grid, days = _study_parts(provider)
        obs = Obs()
        return engine(provider, obs=obs, **options).run(pairs, grid, days), obs

    return route


def _approach3(ranks):
    def route(provider=None):
        provider, pairs, grid, days = _study_parts(provider)

        def spmd(comm):
            local = Obs()
            store = DistributedBacktester(provider).run(
                comm, pairs, grid, days, obs=local
            )
            return store, local.to_dict()

        obs = Obs()
        results = mpi.run_spmd(spmd, size=ranks, default_timeout=5)
        for rank, (_, rank_dict) in enumerate(results):
            obs.absorb_rank(rank, rank_dict)
        return results[0][0], obs

    return route


def _sweep(ranks):
    def route():
        obs = Obs()
        store, _ = run_sweep(replace(STUDY, ranks=ranks), obs=obs)
        return store, obs

    return route


ROUTES = {
    "approach1": _single_process(MatrixSeriesBacktester),
    "approach2": _single_process(SequentialBacktester),
    "approach2-shared": _single_process(
        SequentialBacktester, share_correlation=True
    ),
    "approach3-1rank": _approach3(1),
    "approach3-2ranks": _approach3(2),
    "sweep-1rank": _sweep(1),
    "sweep-2ranks": _sweep(2),
}


class TestOneCellLoop:
    """An approach is a correlation source: whichever one feeds the cell
    loop, the store, the job count and the number of clocked cells agree
    (summed over ranks where there are several)."""

    @pytest.fixture(scope="class")
    def reference(self):
        return ROUTES["approach2"]()[0]

    @pytest.mark.parametrize("route", ROUTES)
    def test_same_store_and_counts(self, route, reference):
        store, obs = ROUTES[route]()
        assert store == reference
        assert store.n_trades > 0
        metrics = obs.report()["metrics"]
        assert metrics["counters"]["backtest.jobs"] == len(reference)
        assert metrics["histograms"][PAIR_DAY_HIST]["count"] == len(reference)
        assert "backtest.cells_failed" not in metrics["counters"]


class TestEachSeriesOnce:
    """Approach 3 on the full Table-I grid: nine specs a day are three
    Pearson blocks and three Maronna evaluations — Combined rides on its
    window's Maronna — which the fixed-point counters show as a count."""

    def test_full_grid_counts_one_fixed_point_per_window_and_pair(self):
        from repro.strategy.params import paper_parameter_grid

        cfg = SyntheticMarketConfig(trading_seconds=23_400)
        market = SyntheticMarket(default_universe(4), cfg, seed=404)
        provider = BarProvider(market, TimeGrid(30, trading_seconds=23_400))
        pairs = list(market.universe.pairs())
        grid = paper_parameter_grid()
        windows = sorted({p.m for p in grid})
        assert windows == [50, 100, 200] and len(grid) == 42

        store, totals = _approach3_counters(provider, pairs, grid, [0], 2)
        assert len(store) == len(pairs) * len(grid)
        n_returns = provider.smax - 1
        per_day = sum(len(pairs) * (n_returns - m + 1) for m in windows)
        assert totals["corr.batch.fixed_point_windows"] == per_day
        assert totals["corr.batch.windows"] == 3 * per_day  # nine series sets
        assert totals["corr.batch.unconverged"] == 0
        assert totals["corr.batch.fixed_point_steps"] >= per_day


#: Studies every engine must refuse before doing any work.
BAD_STUDIES = {
    "empty": ([], [0]),
    "bad-pair": ([(0, 9)], [0]),  # outside the 5-symbol universe
    "dup-day": ([(0, 1)], [0, 0]),
    "dup-pair": ([(0, 1), (1, 0)], [0]),  # repeated once ordered i < j
}


class TestValidation:
    """One pointed ``ValueError`` up front — not an ``IndexError`` from
    numpy, not a late ``ResultStore.add`` refusal, not a hung gather."""

    @pytest.mark.parametrize("case", BAD_STUDIES)
    @pytest.mark.parametrize(
        "engine",
        [MatrixSeriesBacktester, SequentialBacktester],
        ids=["approach1", "approach2"],
    )
    def test_single_process(self, provider, engine, case):
        pairs, days = BAD_STUDIES[case]
        with pytest.raises(ValueError):
            engine(provider).run(pairs, [BASE], days)

    @pytest.mark.parametrize("case", BAD_STUDIES)
    def test_distributed_fast_on_every_rank(self, provider, case):
        pairs, days = BAD_STUDIES[case]

        def spmd(comm):
            return DistributedBacktester(provider).run(
                comm, pairs, [BASE], days
            )

        t0 = time.perf_counter()
        with pytest.raises(SpmdFailure) as exc:
            mpi.run_spmd(spmd, size=2, default_timeout=5)
        assert time.perf_counter() - t0 < 1.0
        errors = exc.value.errors
        assert sorted(errors) == [0, 1]
        assert all(type(e) is ValueError for e in errors.values())


class HostileMarket:
    """A seeded :class:`SyntheticMarket` with one symbol's day damaged —
    the edges real TAQ days have (ROADMAP aim 3)."""

    def __init__(self, market, mode, seed=11):
        self.market = market
        self.mode = mode
        self.seed = seed
        self.universe = market.universe
        self.config = market.config

    def quotes(self, day):
        quotes = self.market.quotes(day).copy()
        rng = np.random.default_rng([self.seed, day])
        victim = quotes["symbol"] == rng.integers(len(self.universe))
        session = self.config.trading_seconds
        start = rng.uniform(0.3, 0.5) * session
        if self.mode == "late-start":
            return quotes[~(victim & (quotes["t"] < start))]
        if self.mode == "halt":
            halted = (quotes["t"] >= start) & (quotes["t"] < start + session / 5)
            return quotes[~(victim & halted)]
        if self.mode == "never-quotes":
            return quotes[~victim]
        if self.mode == "never-moves":
            quotes["bid"][victim] = quotes["bid"][victim][0]
            quotes["ask"][victim] = quotes["ask"][victim][0]
            return quotes
        if self.mode == "all-crossed":
            bid = quotes["bid"][victim]
            quotes["bid"][victim] = quotes["ask"][victim]
            quotes["ask"][victim] = bid
            return quotes
        assert self.mode == "empty"
        return quotes[:0]


def _hostile_provider(mode):
    return BarProvider(
        HostileMarket(STUDY.build_market(), mode),
        TimeGrid(STUDY.delta_s, trading_seconds=STUDY.trading_seconds),
    )


def _short_provider(bars):
    """The study's market on a grid of only ``bars`` intervals a day."""
    return BarProvider(
        STUDY.build_market(),
        TimeGrid(STUDY.delta_s, trading_seconds=STUDY.delta_s * bars),
    )


#: The routes that take a provider (a sweep builds its own market).
ENGINE_ROUTES = [r for r in ROUTES if not r.startswith("sweep")]


class TestHostileDays:
    """A damaged day either trades identically through every route or is
    refused with the same pointed ``ValueError`` on every route."""

    @pytest.fixture(
        scope="class", params=["late-start", "halt", "never-moves"]
    )
    def tradeable(self, request):
        mode = request.param
        reference = ROUTES["approach2"](_hostile_provider(mode))[0]
        assert reference != ROUTES["approach2"]()[0]  # the damage bites
        return mode, reference

    @pytest.mark.parametrize("route", ENGINE_ROUTES)
    def test_tradeable_day_same_store(self, route, tradeable):
        mode, reference = tradeable
        provider = _hostile_provider(mode)
        store, _ = ROUTES[route](provider)
        assert store == reference
        assert store.n_trades > 0
        if mode == "never-moves":
            self._assert_flat_symbol_never_trades(provider, store)

    @staticmethod
    def _assert_flat_symbol_never_trades(provider, store):
        """All-zero returns have zero MAD *and* zero std: the degenerate
        branch of the robust start, correlation 0.0 under every
        treatment, so no cell of the flat symbol's pairs opens a trade."""
        _, pairs, grid, days = _study_parts(provider)
        for day in days:
            flat = np.flatnonzero(np.ptp(provider.prices(day), axis=0) == 0.0)
            assert flat.size == 1
            quiet = [pair for pair in pairs if flat[0] in pair]
            assert len(quiet) == 3
            for pair in quiet:
                for k in range(len(grid)):
                    assert store.cell(pair, k, day).size == 0

    #: mode -> what the one ``ValueError`` says (cleaning drops every
    #: crossed quote, so an all-crossed symbol never quotes either).
    UNTRADEABLE = {
        "never-quotes": "has no quotes in the stream",
        "all-crossed": "has no quotes in the stream",
        "empty": "empty quote stream",
    }

    @pytest.mark.parametrize("mode", UNTRADEABLE)
    @pytest.mark.parametrize("route", ENGINE_ROUTES)
    def test_untradeable_day_same_error(self, route, mode):
        message = self.UNTRADEABLE[mode]
        t0 = time.perf_counter()
        with pytest.raises((ValueError, SpmdFailure)) as exc:
            ROUTES[route](_hostile_provider(mode))
        assert time.perf_counter() - t0 < 1.0
        if exc.type is SpmdFailure:
            errors = exc.value.errors
            assert len(errors) == int(route[len("approach3-")])
        else:
            errors = {0: exc.value}
        assert all(type(e) is ValueError for e in errors.values())
        assert all(message in str(e) for e in errors.values())

    @pytest.fixture
    def pearson_goes_dark(self, monkeypatch):
        """Every Pearson cell's correlation series is NaN from ``M`` to
        the close by the time it reaches the strategy.  No quote stream
        produces this through the engines (the kernels refuse NaN returns
        and define the degenerate window as 0.0), so it is injected at the
        one call every route makes: ``DayBlock.scan``."""
        from repro.strategy.engine import DayBlock

        real = DayBlock.scan

        def dark(self, p, corr, params, **kwargs):
            if params.ctype is CorrelationType.PEARSON:
                assert np.isfinite(corr[params.m :]).all()
                corr = np.full_like(corr, np.nan)
            return real(self, p, corr, params, **kwargs)

        monkeypatch.setattr(DayBlock, "scan", dark)

    @pytest.mark.parametrize("route", ENGINE_ROUTES)
    def test_all_nan_correlation_window_opens_nothing(
        self, route, pearson_goes_dark
    ):
        _, pairs, grid, days = _study_parts()
        store, obs = ROUTES[route]()
        assert store == ROUTES["approach2"]()[0]
        assert "backtest.cells_failed" not in obs.report()["metrics"]["counters"]
        for k, params in enumerate(grid):
            traded = sum(
                store.cell(pair, k, day).size for pair in pairs for day in days
            )
            assert (traded == 0) == (params.ctype is CorrelationType.PEARSON)

    #: One bar (no return at all) and one return short of the window.
    SHORT_DAYS = {"one-bar": 1, "m-minus-1-bars": BASE.m - 1}

    @pytest.mark.parametrize("case", SHORT_DAYS)
    @pytest.mark.parametrize("route", ENGINE_ROUTES)
    def test_day_shorter_than_the_window(self, route, case):
        """Refused by name on every route — and, under Approach 3, by
        every rank at once rather than by a peer's receive timeout."""
        t0 = time.perf_counter()
        with pytest.raises((ValueError, SpmdFailure)) as exc:
            ROUTES[route](_short_provider(self.SHORT_DAYS[case]))
        assert time.perf_counter() - t0 < 1.0
        if exc.type is SpmdFailure:
            errors = exc.value.errors
            assert len(errors) == int(route[len("approach3-")])
        else:
            errors = {0: exc.value}
        assert all(type(e) is ValueError for e in errors.values())
        assert all("need at least" in str(e) for e in errors.values())
        if case == "m-minus-1-bars":  # names the window and what it got
            wanted = f"need at least {BASE.m} return rows, got {BASE.m - 2}"
            assert all(wanted in str(e) for e in errors.values())

    def test_short_day_is_refused_by_a_rank_with_no_pairs_too(self):
        """One pair on three ranks leaves two correlation blocks empty;
        those ranks must validate the day all the same, or they would sit
        in the all-gather until the receive timeout."""
        provider = _short_provider(BASE.m - 1)
        grid = [BASE.with_ctype("maronna"), BASE.with_ctype("combined")]

        def spmd(comm):
            return DistributedBacktester(provider).run(
                comm, [(0, 1)], grid, [0]
            )

        t0 = time.perf_counter()
        with pytest.raises(SpmdFailure) as exc:
            mpi.run_spmd(spmd, size=3, default_timeout=5)
        assert time.perf_counter() - t0 < 1.0
        errors = exc.value.errors
        assert sorted(errors) == [0, 1, 2]
        assert all(type(e) is ValueError for e in errors.values())
        assert all("need at least 30 return rows" in str(e) for e in errors.values())

    @pytest.mark.parametrize("mpi_backend", ["thread", "process"])
    def test_missing_day_is_the_providers_error_on_every_rank(
        self, tmp_path, mpi_backend
    ):
        """A store that does not hold the day raises ``KeyError`` on rank
        0; every rank must raise it at once — not rank 0 alone with its
        peers reporting ``RecvTimeout`` once the timeout has run out."""
        from repro.store import StoreQuoteSource, StoreReader, ingest_synthetic

        market = STUDY.build_market()
        ingest_synthetic(tmp_path, market, n_days=1, n_shards=1)
        provider = BarProvider(
            StoreQuoteSource(StoreReader(tmp_path)),
            TimeGrid(STUDY.delta_s, trading_seconds=STUDY.trading_seconds),
        )

        def spmd(comm):
            return DistributedBacktester(provider).run(
                comm, [(0, 1), (2, 3)], [BASE], [7]
            )

        t0 = time.perf_counter()
        with pytest.raises((SpmdFailure, RemoteRankError)) as exc:
            mpi.run_spmd(spmd, size=2, backend=mpi_backend, default_timeout=5)
        assert time.perf_counter() - t0 < 1.0
        errors = exc.value.errors
        assert sorted(errors) == [0, 1]
        for error in errors.values():
            if mpi_backend == "thread":  # the exception itself
                error = (type(error).__name__, str(error))
            assert error[0] == "KeyError"  # process: (type, message, tb)
            assert "day 7 not in store" in error[1]

    # -- a symbol that halts *inside* robust windows -------------------------

    #: Return rows that are exactly 0.0 for the halted symbol, of a
    #: 389-row day: longer than M = 50 and 100 (whole windows of zeros:
    #: MAD and std both 0, the degenerate branch), shorter than M = 200
    #: (MAD 0 with a live std: the fallback scale).
    HALT_ROWS = slice(100, 261)
    HALT_WINDOWS = (50, 100, 200)

    @pytest.fixture(scope="class")
    def halted(self):
        class HaltedProvider(BarProvider):
            def prices(self, day):
                if day not in self._price_cache:
                    prices = super().prices(day).copy()
                    rows = TestHostileDays.HALT_ROWS
                    prices[rows.start : rows.stop + 1, 1] = prices[rows.start, 1]
                    self._price_cache[day] = prices
                return self._price_cache[day]

        market = SyntheticMarket(
            default_universe(3),
            SyntheticMarketConfig(trading_seconds=390 * 30, quote_rate=0.7),
            seed=404,
        )
        provider = HaltedProvider(market, TimeGrid(30, trading_seconds=390 * 30))
        grid = [
            replace(BASE, m=m).with_ctype(ctype)
            for m in self.HALT_WINDOWS
            for ctype in ("pearson", "maronna", "combined")
        ]
        returns = provider.returns(0)
        assert returns.shape == (389, 3)
        assert (returns[self.HALT_ROWS, 1] == 0.0).all()
        assert (returns[:, [0, 2]] != 0.0).all(axis=1).sum() > 300
        pairs = [(0, 1), (0, 2), (1, 2)]
        # The halt bites: whole windows of zeros read 0.0 under the robust
        # treatment, windows straddling the halt's edge do not.
        for m in (50, 100):
            block = batch_pair_series(returns, m, "maronna", pairs=pairs)
            inside = slice(self.HALT_ROWS.start, self.HALT_ROWS.stop - m + 1)
            assert (block[inside, 0] == 0.0).all()
            assert (block[inside, 2] == 0.0).all()
            assert (block[inside, 1] != 0.0).all()  # the untouched pair
            assert block[self.HALT_ROWS.start - m // 4, 0] != 0.0
        return provider, pairs, grid, _oracle_store(provider, pairs, grid, [0])

    #: route -> (ranks or engine options, number of pairs).  Three ranks on
    #: two pairs leaves one shard empty.
    HALT_ROUTES = {
        "approach1": (MatrixSeriesBacktester, {}, 3),
        "approach2": (SequentialBacktester, {}, 3),
        "approach2-shared": (SequentialBacktester, {"share_correlation": True}, 3),
        "approach3-1rank": (DistributedBacktester, 1, 3),
        "approach3-2ranks": (DistributedBacktester, 2, 3),
        "approach3-3ranks": (DistributedBacktester, 3, 3),
        "approach3-3ranks-2pairs": (DistributedBacktester, 3, 2),
    }

    @pytest.mark.parametrize("route", HALT_ROUTES)
    def test_halt_inside_robust_windows_same_store_as_oracle(self, route, halted):
        engine, how, n_pairs = self.HALT_ROUTES[route]
        provider, pairs, grid, expected = halted
        pairs = pairs[:n_pairs]
        if engine is DistributedBacktester:

            def spmd(comm):
                return engine(provider).run(comm, pairs, grid, [0])

            stores = mpi.run_spmd(spmd, size=how, default_timeout=10)
        else:
            stores = [engine(provider, **how).run(pairs, grid, [0])]
        assert expected.n_trades > 0
        for store in stores:
            assert len(store) == n_pairs * len(grid)
            for pair in pairs:
                for k in range(len(grid)):
                    np.testing.assert_array_equal(
                        store.cell(pair, k, 0), expected.cell(pair, k, 0)
                    )


#: What the parent of the PR that deleted the per-window all-gather sent
#: between ranks for ``TestRankTradesWhatItCorrelates.study`` (summed
#: ``mpi.sent.bytes``, the same on both MPI backends), by rank count.
PARENT_SENT_BYTES = {2: 1_407_392, 3: 2_514_016}


class TestRankTradesWhatItCorrelates:
    """Approach 3 communicates twice — the bars out, the stores back.  No
    correlation series crosses between ranks, and the work summed over
    the ranks is the one-rank run's."""

    @pytest.fixture(scope="class")
    def study(self):
        cfg = SyntheticMarketConfig(trading_seconds=23_400 // 4, quote_rate=0.7)
        market = SyntheticMarket(default_universe(16), cfg, seed=404)
        provider = BarProvider(
            market, TimeGrid(30, trading_seconds=cfg.trading_seconds)
        )
        provider.prices(0)  # built once, before any rank asks
        grid = [
            replace(BASE, m=m).with_ctype(ctype)
            for m in (30, 60)
            for ctype in ("pearson", "maronna", "combined")
        ]
        return provider, list(market.universe.pairs()), grid

    @staticmethod
    def _approach3(study, size, backend="thread"):
        provider, pairs, grid = study
        return _approach3_counters(provider, pairs, grid, [0], size, backend)

    @pytest.fixture(scope="class")
    def one_rank(self, study):
        return self._approach3(study, 1)

    @pytest.mark.parametrize("mpi_backend", ["thread", "process"])
    @pytest.mark.parametrize("size", [2, 3])
    def test_no_series_crosses_between_ranks(
        self, study, one_rank, size, mpi_backend
    ):
        store, totals = self._approach3(study, size, mpi_backend)
        reference, reference_totals = one_rank
        assert store == reference
        assert "mpi.coll.allgather.count" not in totals
        # One bars broadcast a day, one store gather, one merged broadcast.
        assert totals["mpi.coll.bcast.count"] == 2 * size
        assert totals["mpi.coll.gather.count"] == size
        assert totals["mpi.sent.bytes"] <= 0.1 * PARENT_SENT_BYTES[size]
        for name in (
            "backtest.jobs",
            "corr.batch.fixed_point_windows",
            "corr.batch.unconverged",
        ):
            assert totals[name] == reference_totals[name], name
        assert totals["backtest.jobs"] == len(reference)

    def test_one_rank_is_the_shared_sequential_engine(self, study, one_rank):
        provider, pairs, grid = study
        obs = Obs()
        shared = SequentialBacktester(
            provider, share_correlation=True, obs=obs
        ).run(pairs, grid, [0])
        store, totals = one_rank
        assert store == shared
        counters = obs.to_dict()["metrics"]["counters"]
        names = [n for n in counters if n.startswith("corr.batch.")]
        assert len(names) >= 6
        for name in names + ["backtest.jobs"]:
            assert totals[name] == counters[name], name
