"""Approach 2: the sequential, per-pair "Matlab" baseline.

The paper's second Matlab approach "re-created all correlation timeseries
in Matlab", producing "a daily return vector R_p^{t,k} for a given pair p,
day t and parameter vector k in approximately 2 seconds" — one independent
job per (pair, day, parameter set), each recomputing its own correlation
series from scratch.  :class:`SequentialBacktester` reproduces exactly that
cost structure; ``share_correlation=True`` adds the obvious memoisation
(every pair's series computed once per (day, M, Ctype)) as a measured
ablation between Approach 2 and the integrated Approach 3.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.backtest.data import BarProvider
from repro.backtest.results import ResultStore
from repro.corr.batch import BatchWorkspace, batch_pair_series, corr_series
from repro.corr.maronna import MaronnaConfig
from repro.corr.measures import check_pairs
from repro.obs import NULL_METRIC, Obs
from repro.strategy.costs import ExecutionModel, execution_salt
from repro.strategy.engine import Trade, align_corr_series, run_pair_day
from repro.strategy.params import StrategyParams

#: Histogram of per-(pair, day, parameter set) job wall seconds — the
#: paper's "approximately 2 seconds" unit of work, shared by every engine
#: so Section-IV benchmarks read one metric regardless of approach.
PAIR_DAY_HIST = "backtest.pair_day.seconds"


@dataclass(frozen=True)
class CellFailure:
    """One failed (pair, day, parameter set) cell of a sweep.

    A 61-stock × 20-day × 42-set study is 1.5M cells; one bad cell must
    not discard a night of compute.  Engines running with
    ``on_error="continue"`` record these instead of aborting, and the
    sweep driver reports them as a manifest (and a non-zero exit).
    """

    pair: tuple[int, int]
    day: int
    param_index: int
    exc_type: str
    message: str
    traceback: str

    @property
    def sort_key(self) -> tuple:
        """Deterministic (day, pair, param index) ordering key."""
        return (self.day, self.pair, self.param_index)

    def describe(self) -> str:
        """One-line human-readable summary of the failed cell."""
        return (
            f"pair={self.pair} day={self.day} k={self.param_index}: "
            f"{self.exc_type}: {self.message}"
        )


def _capture_cell_failure(
    pair: tuple[int, int], day: int, k: int, exc: BaseException
) -> CellFailure:
    return CellFailure(
        pair=tuple(pair),
        day=day,
        param_index=k,
        exc_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    )


def backtest_pair_day(
    prices: np.ndarray,
    params: StrategyParams,
    corr: np.ndarray | None = None,
    maronna_config: MaronnaConfig | None = None,
    execution: ExecutionModel | None = None,
    salt: int = 0,
    obs: Obs | None = None,
) -> list[Trade]:
    """Run one (pair, day, parameter set) job, the paper's unit of work.

    ``prices`` is the pair's ``(smax, 2)`` BAM closes.  Without a supplied
    ``corr`` series the job computes its own — the Approach-2 cost profile.
    With ``obs`` the job's wall time lands in ``backtest.pair_day.seconds``.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 2 or prices.shape[1] != 2:
        raise ValueError(f"prices must be (smax, 2), got {prices.shape}")
    smax = prices.shape[0]
    hist = (
        obs.metrics.histogram(PAIR_DAY_HIST)
        if obs is not None and obs.enabled
        else None
    )
    t0 = time.perf_counter() if hist is not None else 0.0
    if corr is None:
        returns = np.diff(np.log(prices), axis=0)
        series = corr_series(
            returns[:, 0], returns[:, 1], params.m, params.ctype, maronna_config
        )
        corr = align_corr_series(series, smax, params.m)
    trades = run_pair_day(prices, corr, params, execution=execution, salt=salt)
    if hist is not None:
        hist.observe(time.perf_counter() - t0)
    return trades


class SequentialBacktester:
    """Loop over (day, pair, parameter set) jobs on a single process.

    By default every job recomputes its own correlation series (the
    paper's Approach-2 cost profile).  ``share_correlation=True`` instead
    fills a per-day cache with one
    :func:`~repro.corr.batch.batch_pair_series` call per (window,
    treatment) spec, leaving every trade bitwise identical; the per-job
    clock then covers only the strategy scan and the correlation cost
    lands in ``corr.batch.*``.
    """

    def __init__(
        self,
        provider: BarProvider,
        share_correlation: bool = False,
        maronna_config: MaronnaConfig | None = None,
        execution: ExecutionModel | None = None,
        obs: Obs | None = None,
        profile: bool = False,
        profile_interval: float = 0.005,
    ):
        self.provider = provider
        self.share_correlation = share_correlation
        self.maronna_config = maronna_config
        self.execution = execution
        self.obs = obs
        self._workspace = BatchWorkspace()
        #: With ``profile=True`` (and an enabled obs), each run is stack-
        #: sampled and the profile folded into ``obs.profile``.
        self.profile = profile
        self.profile_interval = profile_interval
        #: Wall-clock seconds spent per (pair, day, param) job in the last run.
        self.last_job_seconds: list[float] = []
        #: Cells skipped by the last ``on_error="continue"`` run.
        self.last_failures: list[CellFailure] = []

    def run(
        self,
        pairs: list[tuple[int, int]],
        grid: list[StrategyParams],
        days: list[int],
        on_error: str = "abort",
    ) -> ResultStore:
        """Backtest every (pair, parameter set) cell over the given days.

        ``on_error="continue"`` records a :class:`CellFailure` per failed
        cell in ``self.last_failures`` and keeps sweeping; the default
        aborts on the first failure, preserving historical behaviour.
        """
        if on_error not in ("abort", "continue"):
            raise ValueError(
                f"on_error must be 'abort' or 'continue', got {on_error!r}"
            )
        self._validate(pairs, grid, days)
        obs = self.obs
        record = obs is not None and obs.enabled
        span = (
            obs.trace.span(
                "approach2", days=len(days), pairs=len(pairs), grid=len(grid)
            )
            if record
            else NULL_METRIC
        )
        store = ResultStore()
        self.last_job_seconds = []
        self.last_failures = []
        profiler = None
        if self.profile and record:
            from repro.obs.live.profiler import SamplingProfiler

            profiler = SamplingProfiler(obs, interval=self.profile_interval)
            profiler.start()
        try:
            self._run_cells(store, pairs, grid, days, span, on_error, record)
        finally:
            if profiler is not None:
                profiler.stop()
        if record:
            obs.metrics.counter("backtest.jobs").inc(len(self.last_job_seconds))
        return store

    def _shared_corr(self, pairs, grid, day, smax) -> dict[tuple, np.ndarray]:
        """The day's ``{(i, j, m, ctype): aligned series}`` cache: one
        batch evaluation per (window, treatment) spec."""
        returns = self.provider.returns(day)
        specs = sorted(
            {(p.m, p.ctype) for p in grid}, key=lambda s: (s[0], s[1].value)
        )
        cache: dict[tuple, np.ndarray] = {}
        for m, ctype in specs:
            block = batch_pair_series(
                returns, m, ctype, self.maronna_config, pairs=pairs,
                obs=self.obs, workspace=self._workspace,
            )
            for p, (i, j) in enumerate(pairs):
                cache[(i, j, m, ctype)] = align_corr_series(
                    block[:, p], smax, m
                )
        return cache

    def _run_cells(self, store, pairs, grid, days, span, on_error, record):
        obs = self.obs
        with span:
            for day in days:
                prices = self.provider.prices(day)
                smax = prices.shape[0]
                corr_cache = (
                    self._shared_corr(pairs, grid, day, smax)
                    if self.share_correlation
                    else {}
                )
                for i, j in pairs:
                    pair_prices = prices[:, [i, j]]
                    for k, params in enumerate(grid):
                        t0 = time.perf_counter()
                        # Unshared: no cached series, the job computes its own.
                        corr = corr_cache.get((i, j, params.m, params.ctype))
                        # The timing loop owns the job clock — pass obs=None
                        # down so the job does not also record itself.
                        try:
                            trades = backtest_pair_day(
                                pair_prices,
                                params,
                                corr,
                                self.maronna_config,
                                execution=self.execution,
                                salt=execution_salt((i, j), k),
                            )
                        except Exception as exc:
                            if on_error == "abort":
                                raise
                            self.last_failures.append(
                                _capture_cell_failure((i, j), day, k, exc)
                            )
                            if record:
                                obs.metrics.counter(
                                    "backtest.cells_failed"
                                ).inc()
                            continue
                        elapsed = time.perf_counter() - t0
                        self.last_job_seconds.append(elapsed)
                        if record:
                            obs.metrics.histogram(PAIR_DAY_HIST).observe(elapsed)
                        store.add((i, j), k, day, [t.ret for t in trades])

    def _validate(
        self,
        pairs: list[tuple[int, int]],
        grid: list[StrategyParams],
        days: list[int],
    ) -> None:
        if not pairs or not grid or not days:
            raise ValueError("pairs, grid and days must all be non-empty")
        check_pairs(pairs, self.provider.n_symbols)
        if len(set(days)) != len(days):
            raise ValueError("days must be unique")
