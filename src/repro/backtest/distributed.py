"""Approach 3: the integrated, MPI-parallel MarketMiner backtest.

The paper's target architecture: correlation computation happens once,
market-wide, inside the platform, and strategy evaluation is distributed.
Three stages, and a rank trades the pairs it correlates:

1. per day, rank 0 prepares the bars and broadcasts them (the
   data-adapter stage of Figure 1) — or the provider's error, so a day
   nobody can serve fails every rank at once;
2. each rank takes its shard of the pairs
   (:func:`~repro.elastic.sharding.shard_pairs`), computes the shard's
   correlation series — and every Maronna fixed point — exactly once
   per (window M, treatment) of the grid
   (:func:`~repro.backtest.runner.shared_corr_for`) and runs the
   shard's (pair, parameter set) cells off those blocks.  No series
   leaves its rank, which removes "the main bottleneck, the computation
   of all pair-wise correlations" without a hand-off in its place;
3. per-rank partial :class:`~repro.backtest.results.ResultStore`\\ s are
   gathered and merged at the master, which is where the paper hangs risk
   management and basket execution.

The result is identical to both Matlab-style engines (tested invariant);
only the time and memory profiles differ.
"""

from __future__ import annotations

from repro.backtest.data import BarProvider
from repro.backtest.results import ResultStore
from repro.backtest.runner import (
    CellFailure,
    run_cells,
    shared_corr_for,
    validate_study,
)
from repro.corr.batch import BatchWorkspace
from repro.corr.maronna import MaronnaConfig
from repro.elastic.sharding import shard_pairs
from repro.mpi.api import Comm
from repro.obs import Obs, comm_obs, resolve
from repro.strategy.costs import ExecutionModel
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
    ) -> ResultStore:
        """SPMD entry point: every rank calls this; every rank returns the
        complete merged store (the master additionally being where basket
        aggregation would attach).  ``obs`` defaults to the communicator's
        attached handle, so MPI and engine telemetry land in one registry.

        ``on_error="continue"`` skips failed (pair, day, parameter set)
        cells; the per-rank failures are gathered alongside the partial
        stores and every rank ends with the same sorted manifest in
        ``self.last_failures``.
        """
        if on_error not in ("abort", "continue"):
            raise ValueError(
                f"on_error must be 'abort' or 'continue', got {on_error!r}"
            )
        pairs = validate_study(pairs, grid, days, self.provider.n_symbols)
        obs = resolve(obs if obs is not None else comm_obs(comm))
        store = ResultStore()
        failures = [] if on_error == "continue" else None
        self.last_failures = []
        # The one placement rule: this rank correlates and trades its
        # shard, and the merged store is identical at any rank count.
        my_pairs = shard_pairs(pairs, comm.size)[comm.rank]
        # This rank's kernel scratch for the whole run (the backtester
        # itself is shared by the rank threads, so it cannot own one).
        workspace = BatchWorkspace()
        with obs.trace.span(
            "approach3", rank=comm.rank, size=comm.size, days=len(days)
        ):
            for day in days:
                with obs.trace.span("day", day=day):
                    # Stage 1: master prepares bars, broadcasts market-wide
                    # data — or the reason the day has none, so every rank
                    # raises it at once instead of waiting out a timeout.
                    with obs.trace.span("bcast_bars"):
                        bundle = None
                        if comm.rank == 0:
                            try:
                                bundle = (
                                    self.provider.prices(day),
                                    self.provider.returns(day),
                                )
                            except Exception as exc:
                                bundle = exc
                        bundle = comm.bcast(bundle, root=0)
                        if isinstance(bundle, Exception):
                            raise bundle
                        prices, returns = bundle

                    # Stage 2: this shard's series, each computed once,
                    # then its cells reading those blocks.
                    with obs.trace.span("correlation"):
                        corr_for = shared_corr_for(
                            returns, prices.shape[0], my_pairs, grid,
                            self.maronna_config, obs, workspace,
                        )
                    with obs.trace.span("strategy", pairs=len(my_pairs)):
                        run_cells(
                            store, prices, day, my_pairs, grid, corr_for,
                            obs, self.execution, failures,
                        )

            # Stage 3: gather partial stores at the master, merge, share.
            with obs.trace.span("gather_merge"):
                partials = comm.gather(store, root=0)
                if comm.rank == 0:
                    merged = ResultStore.merged(partials)
                else:
                    merged = None
                merged = comm.bcast(merged, root=0)
                if failures is not None:
                    failure_parts = comm.gather(failures, root=0)
                    manifest = None
                    if comm.rank == 0:
                        manifest = sorted(
                            (f for part in failure_parts for f in part),
                            key=lambda f: f.sort_key,
                        )
                    self.last_failures = comm.bcast(manifest, root=0)
        return merged
