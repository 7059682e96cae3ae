"""Approach 2, and the one cell loop every approach runs.

The paper's three backtest approaches run the *same* strategy job and
differ only in where the job's correlation series comes from, so the job
loop is written once: :func:`run_cells` iterates a day's (pair, parameter
set) cells, clocks each into ``backtest.pair_day.seconds``, counts
``backtest.jobs`` / ``backtest.cells_failed`` and fills the store; an
engine supplies ``corr_for(i, j, params)`` — its correlation source.

:class:`SequentialBacktester` is the paper's second Matlab approach, which
"re-created all correlation timeseries in Matlab", producing "a daily
return vector R_p^{t,k} for a given pair p, day t and parameter vector k
in approximately 2 seconds" — one independent job per (pair, day,
parameter set), each recomputing its own correlation series from scratch.
``share_correlation=True`` adds the obvious memoisation (every pair's
series computed once per (day, M, Ctype)) as a measured ablation between
Approach 2 and the integrated Approach 3.
"""

from __future__ import annotations

import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.backtest.data import BarProvider
from repro.backtest.results import ResultStore
from repro.corr.batch import BatchWorkspace, batch_pair_blocks, corr_series
from repro.corr.maronna import MaronnaConfig
from repro.corr.measures import CorrelationType, check_pairs
from repro.obs import Obs, resolve
from repro.strategy.costs import ExecutionModel, execution_salt
from repro.strategy.engine import (
    DayBlock,
    Trade,
    align_corr_series,
    run_pair_day,
)
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


def validate_study(
    pairs: list[tuple[int, int]],
    grid: list[StrategyParams],
    days: list[int],
    n_symbols: int,
) -> list[tuple[int, int]]:
    """Check a study's shape before any work; returns the pairs as ``i < j``.

    Every engine calls this first — Approach 3 on every rank, so a bad
    study fails all ranks together instead of stranding some in a
    collective.  Pairs, grid and days must be non-empty, every pair two
    distinct symbols of the universe, and no day or (unordered) pair
    repeated.
    """
    if not pairs or not grid or not days:
        raise ValueError("pairs, grid and days must all be non-empty")
    pairs = [tuple(sorted(p)) for p in check_pairs(pairs, n_symbols)]
    if len(set(pairs)) != len(pairs):
        raise ValueError("pairs must be unique (in either order)")
    if len(set(days)) != len(days):
        raise ValueError("days must be unique")
    return pairs


def correlation_specs(
    grid: list[StrategyParams],
) -> list[tuple[int, CorrelationType]]:
    """The grid's distinct (window, treatment) specs, in one fixed order."""
    return sorted(
        {(p.m, p.ctype) for p in grid}, key=lambda s: (s[0], s[1].value)
    )


def specs_by_window(
    grid: list[StrategyParams],
) -> dict[int, list[CorrelationType]]:
    """:func:`correlation_specs` grouped as ``{window: treatments}``: what
    a shared-correlation engine asks for in one evaluation per window."""
    windows: dict[int, list[CorrelationType]] = {}
    for m, ctype in correlation_specs(grid):
        windows.setdefault(m, []).append(ctype)
    return windows


def run_cells(
    store: ResultStore,
    prices: np.ndarray,
    day: int,
    pairs: list[tuple[int, int]],
    grid: list[StrategyParams],
    corr_for: Callable[[int, int, StrategyParams], np.ndarray],
    obs: Obs,
    execution: ExecutionModel | None = None,
    failures: list[CellFailure] | None = None,
) -> None:
    """Run one day's (pair, parameter set) cells into ``store``.

    The only cell loop under ``repro.backtest``.  ``corr_for(i, j, params)``
    returns the cell's aligned ``(smax,)`` correlation series and runs
    *inside* the cell's clock: an approach that computes a series per job
    pays for it in ``backtest.pair_day.seconds``, one that looks it up
    does not.  ``backtest.jobs`` counts completed cells.  A cell that
    raises is appended to ``failures`` and counted in
    ``backtest.cells_failed``; without a ``failures`` list it re-raises.

    The day's :class:`~repro.strategy.engine.DayBlock` is built once per
    call, outside the per-cell clocks: its one check of the day's prices
    is not charged to any cell, while a cell whose leg fails that check
    raises inside its own clock and ``try``.
    """
    hist = obs.metrics.histogram(PAIR_DAY_HIST)
    jobs = obs.metrics.counter("backtest.jobs")
    block = DayBlock(prices, pairs)
    for p, (i, j) in enumerate(pairs):
        for k, params in enumerate(grid):
            t0 = time.perf_counter()
            try:
                trades = block.scan(
                    p,
                    corr_for(i, j, params),
                    params,
                    execution=execution,
                    salt=execution_salt((i, j), k),
                )
            except Exception as exc:
                if failures is None:
                    raise
                failures.append(_capture_cell_failure((i, j), day, k, exc))
                obs.metrics.counter("backtest.cells_failed").inc()
                continue
            elapsed = time.perf_counter() - t0
            hist.observe(elapsed)
            jobs.inc()
            store.add((i, j), k, day, [t.ret for t in trades])


def shared_corr_for(
    returns: np.ndarray,
    smax: int,
    pairs: list[tuple[int, int]],
    grid: list[StrategyParams],
    maronna_config: MaronnaConfig | None,
    obs: Obs,
    workspace: BatchWorkspace,
) -> Callable[[int, int, StrategyParams], np.ndarray]:
    """The shared source: every series of ``pairs`` computed exactly once.

    One :func:`~repro.corr.batch.batch_pair_blocks` call per window of the
    grid (its Maronna and Combined specs share one fixed point); the
    returned ``corr_for`` aligns a column of the matching block.  This is
    the whole of a day's correlation work for ``share_correlation=True``
    over every pair and for an Approach-3 rank over its shard.
    """
    column = {pair: p for p, pair in enumerate(pairs)}
    blocks = {
        m: batch_pair_blocks(
            returns, m, ctypes, maronna_config, pairs=pairs, obs=obs,
            workspace=workspace,
        )
        for m, ctypes in specs_by_window(grid).items()
    }
    return lambda i, j, params: align_corr_series(
        blocks[params.m][params.ctype][:, column[(i, j)]], smax, params.m
    )


def _own_corr(
    pair_prices: np.ndarray,
    params: StrategyParams,
    maronna_config: MaronnaConfig | None,
) -> np.ndarray:
    """The Approach-2 source: a job's series from its own pair's closes."""
    returns = np.diff(np.log(pair_prices), axis=0)
    series = corr_series(
        returns[:, 0], returns[:, 1], params.m, params.ctype, maronna_config
    )
    return align_corr_series(series, pair_prices.shape[0], params.m)


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
    with resolve(obs).metrics.timer(PAIR_DAY_HIST):
        if corr is None:
            corr = _own_corr(prices, params, maronna_config)
        return run_pair_day(
            prices, corr, params, execution=execution, salt=salt
        )


class SequentialBacktester:
    """Loop over (day, pair, parameter set) jobs on a single process.

    By default every job recomputes its own correlation series (the
    paper's Approach-2 cost profile).  ``share_correlation=True`` instead
    reads the day's series from :func:`shared_corr_for` — what an
    Approach-3 rank runs on its shard — leaving every trade bitwise
    identical; the per-job clock then covers only the strategy scan and
    the correlation cost lands in ``corr.batch.*``.
    """

    def __init__(
        self,
        provider: BarProvider,
        share_correlation: bool = False,
        maronna_config: MaronnaConfig | None = None,
        execution: ExecutionModel | None = None,
        obs: Obs | None = None,
    ):
        self.provider = provider
        self.share_correlation = share_correlation
        self.maronna_config = maronna_config
        self.execution = execution
        self.obs = resolve(obs)
        self._workspace = BatchWorkspace()
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
        pairs = validate_study(pairs, grid, days, self.provider.n_symbols)
        store = ResultStore()
        self.last_failures = []
        with self.obs.trace.span(
            "approach2", days=len(days), pairs=len(pairs), grid=len(grid)
        ):
            for day in days:
                prices = self.provider.prices(day)
                run_cells(
                    store, prices, day, pairs, grid,
                    self._corr_source(prices, pairs, grid, day),
                    self.obs, self.execution,
                    self.last_failures if on_error == "continue" else None,
                )
        return store

    def _corr_source(self, prices, pairs, grid, day):
        """The day's ``corr_for``: each job computes its own series, or
        (shared) reads blocks filled by one batch evaluation per window."""
        if not self.share_correlation:
            return lambda i, j, params: _own_corr(
                prices[:, [i, j]], params, self.maronna_config
            )
        return shared_corr_for(
            self.provider.returns(day), prices.shape[0], pairs, grid,
            self.maronna_config, self.obs, self._workspace,
        )
