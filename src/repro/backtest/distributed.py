"""Approach 3: the integrated, MPI-parallel MarketMiner backtest.

The paper's target architecture: correlation computation happens once,
market-wide, inside the platform, and strategy evaluation is distributed.
Per day:

1. rank 0 prepares the day's bars and broadcasts them (the data-adapter
   stage of Figure 1);
2. for each distinct (M, Ctype) in the parameter grid, every pair's
   correlation series is computed exactly once, with the pair blocks
   distributed across ranks (:class:`~repro.corr.parallel.ParallelCorrelationEngine`)
   — this removes "the main bottleneck, the computation of all pair-wise
   correlations";
3. the (pair, parameter set) strategy runs are partitioned by pair across
   ranks, each rank reusing the shared correlation series for all its
   parameter sets;
4. per-rank partial :class:`~repro.backtest.results.ResultStore`\\ s are
   gathered and merged at the master, which is where the paper hangs risk
   management and basket execution.

The result is identical to both Matlab-style engines (tested invariant);
only the time and memory profiles differ.
"""

from __future__ import annotations

import time

from repro.backtest.data import BarProvider
from repro.backtest.results import ResultStore
from repro.backtest.runner import CellFailure, _capture_cell_failure
from repro.corr.maronna import MaronnaConfig
from repro.corr.parallel import ParallelCorrelationEngine
from repro.elastic.sharding import shard_pairs
from repro.mpi.api import Comm
from repro.obs import NULL_METRIC, Obs, comm_obs
from repro.strategy.costs import ExecutionModel, execution_salt
from repro.strategy.engine import align_corr_series, run_pair_day
from repro.strategy.params import StrategyParams


class DistributedBacktester:
    """SPMD backtester over the MPI substrate."""

    def __init__(
        self,
        provider: BarProvider,
        maronna_config: MaronnaConfig | None = None,
        execution: ExecutionModel | None = None,
    ):
        self.provider = provider
        self.maronna_config = maronna_config
        self.execution = execution
        #: Merged cross-rank manifest of the last ``on_error="continue"``
        #: run — identical on every rank after the final broadcast.
        self.last_failures: list[CellFailure] = []

    def run(
        self,
        comm: Comm,
        pairs: list[tuple[int, int]],
        grid: list[StrategyParams],
        days: list[int],
        obs: Obs | None = None,
        on_error: str = "abort",
        profile: bool = False,
        profile_interval: float = 0.005,
    ) -> ResultStore:
        """SPMD entry point: every rank calls this; every rank returns the
        complete merged store (the master additionally being where basket
        aggregation would attach).  ``obs`` defaults to the communicator's
        attached handle, so MPI and engine telemetry land in one registry.

        ``on_error="continue"`` skips failed (pair, day, parameter set)
        cells; the per-rank failures are gathered alongside the partial
        stores and every rank ends with the same sorted manifest in
        ``self.last_failures``.

        ``profile=True`` stack-samples this rank's run and folds the
        profile into ``obs.profile``, so the cross-rank report merge
        surfaces one flame table spanning all ranks.
        """
        if on_error not in ("abort", "continue"):
            raise ValueError(
                f"on_error must be 'abort' or 'continue', got {on_error!r}"
            )
        if not pairs or not grid or not days:
            raise ValueError("pairs, grid and days must all be non-empty")
        if obs is None:
            obs = comm_obs(comm)
        record = obs is not None and obs.enabled
        root_span = (
            obs.trace.span(
                "approach3", rank=comm.rank, size=comm.size, days=len(days)
            )
            if record
            else NULL_METRIC
        )
        pairs = [tuple(sorted(p)) for p in pairs]
        store = ResultStore()
        failures: list[CellFailure] = []
        self.last_failures = []
        # Stable-hash sharding (not contiguous blocks): a pair's shard is a
        # pure function of its id, so membership survives pool resizes and
        # the merged store is identical at any rank count.
        my_pairs = shard_pairs(pairs, comm.size)[comm.rank]
        specs = sorted(
            {(p.m, p.ctype) for p in grid}, key=lambda s: (s[0], s[1].value)
        )
        profiler = NULL_METRIC
        if profile and record:
            from repro.obs.live.profiler import SamplingProfiler

            profiler = SamplingProfiler(obs, interval=profile_interval)
        with profiler, root_span:
            for day in days:
                day_span = (
                    obs.trace.span("day", day=day) if record else NULL_METRIC
                )
                with day_span:
                    # Stage 1: master prepares bars, broadcasts market-wide
                    # data.
                    stage = (
                        obs.trace.span("bcast_bars")
                        if record
                        else NULL_METRIC
                    )
                    with stage:
                        if comm.rank == 0:
                            bundle = (
                                self.provider.prices(day),
                                self.provider.returns(day),
                            )
                        else:
                            bundle = None
                        prices, returns = comm.bcast(bundle, root=0)
                    smax = prices.shape[0]

                    # Stage 2: each correlation series computed exactly once,
                    # pair-blocks distributed, result replicated on all ranks.
                    stage = (
                        obs.trace.span("correlation")
                        if record
                        else NULL_METRIC
                    )
                    with stage:
                        series_by_spec = {}
                        for m, ctype in specs:
                            engine = ParallelCorrelationEngine(
                                ctype, self.maronna_config
                            )
                            series_by_spec[(m, ctype)] = engine.pair_series(
                                comm, returns, m, pairs
                            )

                    # Stage 3: strategy runs for this rank's pair block, all
                    # parameter sets, reusing the shared series.
                    stage = (
                        obs.trace.span("strategy", pairs=len(my_pairs))
                        if record
                        else NULL_METRIC
                    )
                    with stage:
                        for i, j in my_pairs:
                            pair_prices = prices[:, [i, j]]
                            for k, params in enumerate(grid):
                                t0 = time.perf_counter() if record else 0.0
                                series = series_by_spec[
                                    (params.m, params.ctype)
                                ][(i, j)]
                                corr = align_corr_series(
                                    series, smax, params.m
                                )
                                try:
                                    trades = run_pair_day(
                                        pair_prices,
                                        corr,
                                        params,
                                        execution=self.execution,
                                        salt=execution_salt((i, j), k),
                                    )
                                except Exception as exc:
                                    if on_error == "abort":
                                        raise
                                    failures.append(
                                        _capture_cell_failure(
                                            (i, j), day, k, exc
                                        )
                                    )
                                    if record:
                                        obs.metrics.counter(
                                            "backtest.cells_failed"
                                        ).inc()
                                    continue
                                if record:
                                    obs.metrics.histogram(
                                        "backtest.pair_day.seconds"
                                    ).observe(time.perf_counter() - t0)
                                store.add(
                                    (i, j), k, day, [t.ret for t in trades]
                                )

            # Stage 4: gather partial stores at the master, merge, share
            # back.
            stage = (
                obs.trace.span("gather_merge") if record else NULL_METRIC
            )
            with stage:
                partials = comm.gather(store, root=0)
                if comm.rank == 0:
                    merged = ResultStore.merged(partials)
                else:
                    merged = None
                merged = comm.bcast(merged, root=0)
                if on_error == "continue":
                    failure_parts = comm.gather(failures, root=0)
                    manifest = None
                    if comm.rank == 0:
                        manifest = sorted(
                            (f for part in failure_parts for f in part),
                            key=lambda f: f.sort_key,
                        )
                    self.last_failures = comm.bcast(manifest, root=0)
        if record:
            obs.metrics.counter("backtest.jobs").inc(
                len(my_pairs) * len(grid) * len(days)
            )
        return merged
