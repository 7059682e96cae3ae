"""One-call assembly of the Figure-1 pipeline.

``build_figure1_workflow`` wires collector → cleaning → bar accumulator →
technical analysis → correlation engine → pair trading strategy → order
sink, matching the paper's architecture figure; ``run_figure1_session``
executes it SPMD over the MPI substrate and returns every component's
results (bars emitted, matrices produced, trades, baskets, cleaning
counts) on every rank.  ``build_synthetic_figure1`` is the small seeded
session the CLI, serving layer and smoke checks run; ``SessionControl``
is the pause/kill/resize handle the supervised epoch loop
(:func:`repro.faults.run_supervised_session`) polls at every boundary.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.corr.maronna import MaronnaConfig
from repro.elastic.sharding import shard_pairs
from repro.marketminer.component import Component
from repro.marketminer.components.bar_accumulator import BarAccumulatorComponent
from repro.marketminer.components.cleaning import CleaningComponent
from repro.marketminer.components.collectors import LiveCollector
from repro.marketminer.components.correlation import CorrelationEngineComponent
from repro.marketminer.components.orders import OrderSinkComponent
from repro.marketminer.components.strategy import PairTradingComponent
from repro.marketminer.components.technical import TechnicalAnalysisComponent
from repro.marketminer.graph import Workflow
from repro.marketminer.scheduler import WorkflowRunner
from repro.mpi.launcher import run_spmd
from repro.strategy.params import StrategyParams
from repro.strategy.portfolio import RiskLimits
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid


def build_figure1_workflow(
    market: SyntheticMarket,
    grid_time: TimeGrid,
    pairs: list[tuple[int, int]],
    params_grid: list[StrategyParams],
    day: int = 0,
    collector: Component | None = None,
    limits: RiskLimits | None = None,
    maronna_config: MaronnaConfig | None = None,
    clean: bool = True,
    n_corr_engines: int = 1,
) -> Workflow:
    """Wire the paper's Figure-1 pipeline for one trading day.

    All parameter sets must share (Δs, M, Ctype) — one correlation *spec*
    per workflow, as drawn in the figure.  With ``n_corr_engines > 1``
    the correlation work is split into that many pair-shard engines
    (:func:`~repro.elastic.sharding.shard_pairs`) fed from the same
    return stream — the figure's "Parallel Correlation
    Engine" — and the strategy component joins the blocks per interval.
    """
    if not params_grid:
        raise ValueError("need at least one parameter set")
    specs = {(p.delta_s, p.m, p.ctype) for p in params_grid}
    if len(specs) != 1:
        raise ValueError(
            f"one Figure-1 pipeline hosts one correlation engine; the grid "
            f"spans {len(specs)} (delta_s, M, Ctype) specs: {sorted(specs, key=str)}"
        )
    delta_s, m, ctype = specs.pop()
    if delta_s != grid_time.delta_s:
        raise ValueError(
            f"grid delta_s={grid_time.delta_s} does not match parameter "
            f"delta_s={delta_s}"
        )
    n_symbols = len(market.universe)

    wf = Workflow(name="figure1")
    wf.add(
        collector
        if collector is not None
        else LiveCollector(market, grid_time, day=day)
    )
    collector_name = list(wf.components)[0]
    if clean:
        wf.add(CleaningComponent(n_symbols))
    wf.add(BarAccumulatorComponent(grid_time, n_symbols))
    wf.add(TechnicalAnalysisComponent())
    if n_corr_engines < 1:
        raise ValueError(f"n_corr_engines must be >= 1, got {n_corr_engines}")
    pairs = [tuple(sorted(p)) for p in pairs]
    if n_corr_engines == 1:
        engine_names = ["correlation"]
        wf.add(
            CorrelationEngineComponent(
                n_symbols, m, ctype, config=maronna_config
            )
        )
    else:
        engine_names = []
        for b, block in enumerate(shard_pairs(pairs, n_corr_engines)):
            if not block:
                continue  # more engines than pairs: drop the idle ones
            name = f"correlation_{b}"
            engine_names.append(name)
            wf.add(
                CorrelationEngineComponent(
                    n_symbols, m, ctype, config=maronna_config,
                    name=name, pairs=block,
                )
            )
    wf.add(
        PairTradingComponent(
            pairs=pairs, grid=params_grid, smax=grid_time.smax, m=m
        )
    )
    wf.add(OrderSinkComponent(limits=limits))

    if clean:
        wf.connect(collector_name, "quotes", "cleaning", "quotes")
        wf.connect("cleaning", "quotes", "bar_accumulator", "quotes")
    else:
        wf.connect(collector_name, "quotes", "bar_accumulator", "quotes")
    wf.connect("bar_accumulator", "closes", "technical", "closes")
    wf.connect("bar_accumulator", "closes", "pair_trading", "closes")
    for name in engine_names:
        wf.connect("technical", "returns", name, "returns")
        wf.connect(name, "corr", "pair_trading", "corr")
    wf.connect("pair_trading", "orders", "order_sink", "orders")
    wf.connect("pair_trading", "trades", "order_sink", "trades")
    wf.validate()
    return wf


def build_synthetic_figure1(
    symbols: int,
    seconds: int,
    seed: int,
    params: StrategyParams,
    pairs: list[tuple[int, int]] | None = None,
    n_corr_engines: int = 1,
) -> Workflow:
    """The small seeded session the CLI, serving layer and smokes run.

    A fresh :class:`SyntheticMarket` over the first ``symbols`` default
    tickers, a 30-second bar grid and one parameter set through
    :func:`build_figure1_workflow`; ``pairs`` defaults to all of them.
    A pure function of its arguments, so it serves as the per-attempt
    ``build`` factory of :func:`repro.faults.run_supervised_session`.
    """
    market = SyntheticMarket(
        default_universe(symbols),
        SyntheticMarketConfig(trading_seconds=seconds, quote_rate=0.9),
        seed=seed,
    )
    return build_figure1_workflow(
        market,
        TimeGrid(30, trading_seconds=seconds),
        list(market.universe.pairs()) if pairs is None else pairs,
        [params],
        n_corr_engines=n_corr_engines,
    )


def build_multi_spec_workflow(
    market: SyntheticMarket,
    grid_time: TimeGrid,
    pairs: list[tuple[int, int]],
    params_grid: list[StrategyParams],
    day: int = 0,
    limits: RiskLimits | None = None,
    maronna_config: MaronnaConfig | None = None,
    clean: bool = True,
) -> Workflow:
    """One platform, many strategies: a pipeline hosting every spec.

    The Figure-1 caption shows MarketMiner "power[ing] a pair trading
    strategy with a particular set of parameters"; a real deployment runs
    many parameter sets at once.  This builder shares the data plumbing
    (collector → cleaning → bars → technical analysis) and instantiates
    one correlation engine plus one strategy component per distinct
    (M, Ctype) spec, all feeding a single order sink — the master that
    risk-manages the union.

    All parameter sets must share Δs (one bar clock per pipeline).
    """
    if not params_grid:
        raise ValueError("need at least one parameter set")
    if {p.delta_s for p in params_grid} != {grid_time.delta_s}:
        raise ValueError("all parameter sets must share the pipeline's delta_s")
    pairs = [tuple(sorted(p)) for p in pairs]
    n_symbols = len(market.universe)

    specs: dict[tuple, list[tuple[int, StrategyParams]]] = {}
    for k, params in enumerate(params_grid):
        specs.setdefault((params.m, params.ctype), []).append((k, params))

    wf = Workflow(name="figure1-multi-spec")
    wf.add(LiveCollector(market, grid_time, day=day))
    upstream = "live_collector"
    if clean:
        wf.add(CleaningComponent(n_symbols))
        wf.connect(upstream, "quotes", "cleaning", "quotes")
        upstream = "cleaning"
    wf.add(BarAccumulatorComponent(grid_time, n_symbols))
    wf.connect(upstream, "quotes", "bar_accumulator", "quotes")
    wf.add(TechnicalAnalysisComponent())
    wf.connect("bar_accumulator", "closes", "technical", "closes")
    wf.add(OrderSinkComponent(limits=limits))

    for idx, ((m, ctype), members) in enumerate(sorted(specs.items(), key=str)):
        engine = f"correlation_{ctype.value}_m{m}"
        strategy = f"pair_trading_{idx}"
        wf.add(
            CorrelationEngineComponent(
                n_symbols, m, ctype, config=maronna_config, name=engine
            )
        )
        # Each strategy component sees only its spec's parameter sets but
        # keeps the *global* parameter indices via a sub-grid in order.
        sub_grid = [params for _, params in members]
        comp = PairTradingComponent(
            pairs=pairs,
            grid=sub_grid,
            smax=grid_time.smax,
            m=m,
            name=strategy,
        )
        comp.param_indices = tuple(k for k, _ in members)  # global mapping
        wf.add(comp)
        wf.connect("technical", "returns", engine, "returns")
        wf.connect(engine, "corr", strategy, "corr")
        wf.connect("bar_accumulator", "closes", strategy, "closes")
        wf.connect(strategy, "orders", "order_sink", "orders")
        wf.connect(strategy, "trades", "order_sink", "trades")
    wf.validate()
    return wf


def collect_multi_spec_trades(results: dict) -> dict:
    """Merge per-spec strategy results into {(pair, global_k): trades}."""
    merged: dict = {}
    for name, res in results.items():
        if not name.startswith("pair_trading"):
            continue
        mapping = res.get("param_indices")
        for (pair, local_k), trades in res["trades"].items():
            global_k = mapping[local_k] if mapping else local_k
            key = (pair, global_k)
            if key in merged:
                raise ValueError(f"duplicate trades for {key}")
            merged[key] = trades
    return merged


class SessionKilled(RuntimeError):
    """A supervised session was killed by its controller at an epoch gate."""


class SessionControl:
    """Pause/resume/kill handle for a supervised Figure-1 session.

    The serving layer owns one per live session; the supervisor
    (:func:`repro.faults.run_supervised_session`) calls :meth:`gate`
    before every epoch attempt and :meth:`on_checkpoint` after every
    successful checkpoint.  Epoch boundaries are the only consistent
    cuts of the stream (end-of-stream has drained all in-flight
    traffic), so they are where control takes effect: a pause parks the
    session at the gate, a resume releases it, a kill raises
    :class:`SessionKilled` out of the gate — which means kill works both
    on a running session (at its next boundary) and on one already
    parked in pause.

    ``on_gate`` is invoked on every gate pass (including each poll while
    parked): the serving layer uses it to drain the session's bounded
    command queue, so commands issued mid-pause — including the kill —
    are still consumed.  All flags are :class:`threading.Event`-backed;
    every method is safe to call from any thread.

    Elasticity rides the same seam: :meth:`request_resize` queues a
    target pool size (latest request wins — a single pending slot, not a
    queue) which the supervisor consumes at its next rebuild via
    :meth:`take_resize`; a request landing mid-epoch is therefore
    *deferred to the boundary*, never applied in place.  The supervisor
    reports back through :meth:`resize_applied` and
    :meth:`note_restart`, so the serving layer's status/telemetry read
    pool size, resize history and restart counts straight off the
    control handle.
    """

    #: Retained (epoch, old, new) resize-history entries; older rotate out.
    RESIZE_HISTORY_CAP = 64

    def __init__(
        self,
        poll_interval: float = 0.05,
        on_gate: "Callable[[SessionControl], None] | None" = None,
        on_resize: "Callable[[int, int, int], None] | None" = None,
    ):
        self.poll_interval = poll_interval
        self.on_gate = on_gate
        self.on_resize = on_resize
        self.n_gates = 0
        self.n_checkpoints = 0
        self.n_restarts = 0
        self._pause = threading.Event()
        self._kill = threading.Event()
        self._lock = threading.Lock()
        self._checkpoint: "tuple[int, dict[str, Any]] | None" = None
        self._resize_target: "int | None" = None
        self._pool_size: "int | None" = None
        self._resize_history: "list[tuple[int, int, int]]" = []

    # -- controller side (HTTP threads) --------------------------------------

    def pause(self) -> None:
        """Park the session at its next epoch gate until :meth:`resume`."""
        self._pause.set()

    def resume(self) -> None:
        """Release a paused session."""
        self._pause.clear()

    def kill(self) -> None:
        """Terminate the session at its next gate pass (even mid-pause)."""
        self._kill.set()

    @property
    def paused(self) -> bool:
        return self._pause.is_set()

    @property
    def killed(self) -> bool:
        return self._kill.is_set()

    def request_resize(self, target: int) -> None:
        """Ask for a pool resize at the session's next rebuild boundary.

        One pending slot, latest wins: issuing ``resize 4`` then
        ``resize 2`` before a boundary applies only the 2.  Validation
        against backend capacity happens at intake (serving layer) and
        again at the boundary (supervisor); this method only records
        intent.
        """
        target = int(target)
        if target < 1:
            raise ValueError(
                f"cannot resize the pool below 1 rank, got {target}"
            )
        with self._lock:
            self._resize_target = target

    @property
    def pending_resize(self) -> "int | None":
        """The queued-but-not-yet-applied target size, if any."""
        with self._lock:
            return self._resize_target

    # -- session side: elasticity reporting ------------------------------------

    def take_resize(self) -> "int | None":
        """Consume the pending resize target (supervisor, at a boundary)."""
        with self._lock:
            target = self._resize_target
            self._resize_target = None
            return target

    def note_pool(self, size: int) -> None:
        """Record the pool size the session is currently running at."""
        with self._lock:
            self._pool_size = size

    def note_restart(self, epoch: int, attempt: int) -> None:
        """Count one supervisor restart (crash recovery, not resize)."""
        with self._lock:
            self.n_restarts += 1

    def resize_applied(self, epoch: int, old: int, new: int) -> None:
        """Record an applied resize; invoke ``on_resize`` for audit."""
        with self._lock:
            self._pool_size = new
            self._resize_history.append((epoch, old, new))
            if len(self._resize_history) > self.RESIZE_HISTORY_CAP:
                del self._resize_history[0]
        if self.on_resize is not None:
            self.on_resize(epoch, old, new)

    @property
    def pool_size(self) -> "int | None":
        """Current pool size (``None`` until the session first runs)."""
        with self._lock:
            return self._pool_size

    def resize_history(self) -> "list[tuple[int, int, int]]":
        """Applied resizes as (epoch, old, new), oldest first (capped)."""
        with self._lock:
            return list(self._resize_history)

    # -- session side (the supervisor's worker thread) ------------------------

    def gate(self, epoch: int) -> None:
        """Block while paused; raise :class:`SessionKilled` when killed."""
        self.n_gates += 1
        while True:
            if self.on_gate is not None:
                self.on_gate(self)
            if self._kill.is_set():
                raise SessionKilled(f"session killed at epoch {epoch} gate")
            if not self._pause.is_set():
                return
            self._kill.wait(self.poll_interval)

    def on_checkpoint(self, epoch: int, snapshots: "dict[str, Any]") -> None:
        """Publish the latest consistent checkpoint for live queries."""
        with self._lock:
            self._checkpoint = (epoch, snapshots)
            self.n_checkpoints += 1

    def latest_checkpoint(self) -> "tuple[int, dict[str, Any]] | None":
        """The newest ``(epoch, component snapshots)`` cut, if any yet."""
        with self._lock:
            return self._checkpoint


def run_figure1_session(
    workflow: Workflow,
    size: int = 3,
    backend: str = "thread",
    collect_stats: bool = False,
    obs_enabled: bool = False,
    fault_plan=None,
    fault_attempt: int = 0,
    flight_dump: str | None = None,
    obs_hook=None,
    **backend_options,
) -> dict:
    """Execute a Figure-1 workflow SPMD; returns all component results.

    With ``obs_enabled=True`` the result dict gains an ``"_obs"`` entry:
    the merged cross-rank telemetry report (handler latency histograms,
    MPI message/byte counters, span tree) in ``repro.obs/v1`` form.

    With a ``fault_plan`` (see :mod:`repro.faults`), every rank runs
    under an attached fault injector and the result gains a ``"_faults"``
    entry with the deterministic per-rank fault event logs.  For
    supervised recovery (checkpoint/restart) use
    :func:`repro.faults.run_supervised_session` instead — this entry
    point runs a single, unsupervised attempt.

    ``flight_dump`` and ``obs_hook`` pass straight through to
    :meth:`~repro.marketminer.scheduler.WorkflowRunner.run`: per-rank
    flight-recorder dumps, and the live-telemetry registration seam the
    ``repro top`` hub uses (thread backend only — the hook must share the
    driver's address space).
    """

    runner = WorkflowRunner(workflow)

    def spmd(comm):
        return runner.run(
            comm,
            collect_stats=collect_stats,
            obs_enabled=obs_enabled,
            fault_plan=fault_plan,
            fault_attempt=fault_attempt,
            flight_dump=flight_dump,
            obs_hook=obs_hook,
        )

    results = run_spmd(spmd, size=size, backend=backend, **backend_options)
    return results[0]


def run_calendar_sessions(
    market: SyntheticMarket,
    grid_time: TimeGrid,
    pairs: list[tuple[int, int]],
    params_grid: list[StrategyParams],
    n_days: int,
    size: int = 3,
    backend: str = "thread",
    n_corr_engines: int = 1,
    limits: RiskLimits | None = None,
    maronna_config: MaronnaConfig | None = None,
    clean: bool = True,
):
    """Run the live pipeline day after day — "longer time frames" (§VI).

    Builds and streams one Figure-1 workflow per trading day (components
    are stateful, so each day gets a fresh build, exactly as a live
    deployment restarts at the open) and accumulates every day's trades
    into a :class:`~repro.backtest.results.ResultStore`, so the paper's
    period metrics (eqs 1–9) apply to live-pipeline output directly.

    Returns ``(store, daily_results)`` where ``daily_results[day]`` is the
    day's full component-result dict.
    """
    from repro.backtest.results import ResultStore

    if n_days <= 0:
        raise ValueError(f"n_days must be positive, got {n_days}")
    store = ResultStore()
    daily_results = {}
    for day in range(n_days):
        workflow = build_figure1_workflow(
            market,
            grid_time,
            pairs,
            params_grid,
            day=day,
            limits=limits,
            maronna_config=maronna_config,
            clean=clean,
            n_corr_engines=n_corr_engines,
        )
        results = run_figure1_session(workflow, size=size, backend=backend)
        daily_results[day] = results
        for (pair, k), trades in results["pair_trading"]["trades"].items():
            store.add(pair, k, day, [t.ret for t in trades])
    return store, daily_results
