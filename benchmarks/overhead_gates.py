"""Overhead gates: every switchable seam must be (near-)free when off,
and the shared fixed point must stay shared.

``python -m benchmarks.overhead_gates`` (a ``scripts/check.sh`` stage)
times both sides of each row of :data:`GATES`, min of :data:`N_RUNS`
runs a side with the sides taking turns (min is robust to scheduling
noise, turns to host-speed drift), and fails unless
``numerator / denominator`` stays under the row's budget:

* obs — a Figure-1 session with observability off must not be slower
  than the same session with it on (the enabled run does strictly more
  work, so this bounds the cost of the no-op path);
* sampler — a ``TelemetryHub`` sampling every rank's registry at the
  default interval (the ``repro top`` data path) reads from its own
  thread, so the session should barely notice it;
* tracer, faults — an untraced / fault-free ping-pong pays exactly one
  ``is not None`` test per send/recv for carrying the seam;
* grouped — a window's Maronna and Combined blocks asked for together
  are one fixed point, so they must cost well under the two asked for
  separately (a ratio of two runs on one host, so host speed cancels);
* streamed — the bar accumulator component is the batch kernel fed one
  interval, so a day through ``on_message`` costs about what
  ``accumulate_ohlc`` costs on the same quotes; the per-quote Python path
  it replaced read ~12× (same kind of ratio).
"""

import time
from functools import partial

import numpy as np

from repro.analysis.commtrace import run_traced
from repro.bars.accumulator import accumulate_ohlc
from repro.corr.batch import batch_pair_blocks
from repro.faults import FaultInjector, FaultPlan
from repro.marketminer.component import Context
from repro.marketminer.components.bar_accumulator import BarAccumulatorComponent
from repro.marketminer.session import build_synthetic_figure1, run_figure1_session
from repro.mpi.launcher import run_spmd
from repro.obs.live import TelemetryHub
from repro.obs.live.sampler import DEFAULT_INTERVAL
from repro.strategy.params import StrategyParams
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid

#: Long enough for several sampler ticks: the session streams (the feed
#: has a rank of its own), so it ends about when the feed does.  A full
#: day takes ≈0.18 s on a 2-core host; a shorter one can end inside the
#: first 50 ms tick, which leaves the sampler gate vacuous.
SECONDS = 23_400
ROUNDS = 4000
#: A 2-rank thread session's wall is bimodal on a 2-core host (fast runs
#: ~30 % quicker than slow ones), so each side needs enough runs for its
#: min to land in the fast mode.
N_RUNS = 9


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def session(obs_enabled=True, sampled=False) -> float:
    """Seconds for one Figure-1 session on 2 ranks."""
    params = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=5, d=0.001)
    workflow = build_synthetic_figure1(4, SECONDS, 7, params)
    hub = TelemetryHub()
    if sampled:
        hub.start(DEFAULT_INTERVAL)
    try:
        return _timed(
            run_figure1_session, workflow, size=2, obs_enabled=obs_enabled,
            obs_hook=hub.register if sampled else None,
        )
    finally:
        hub.stop()
        if sampled:
            assert hub.n_ticks > 0, "sampler never ticked: check is vacuous"


def pingpong(comm):
    peer = 1 - comm.rank
    for i in range(ROUNDS):
        if comm.rank == 0:
            comm.send(i, peer, tag=1)
            comm.recv(source=peer, tag=2)
        else:
            comm.recv(source=peer, tag=1)
            comm.send(i, peer, tag=2)


def injected_pingpong(comm):
    """Ping-pong under an empty plan: the injector stamps and op-counts
    every message but injects nothing."""
    comm.attach_faults(FaultInjector(FaultPlan(name="empty"), comm.rank))
    try:
        pingpong(comm)
    finally:
        comm.attach_faults(None)


def world(program=pingpong, traced=False) -> float:
    """Seconds for one 2-rank run of ``program``."""
    if traced:
        return _timed(run_traced, program, 2, default_timeout=30.0)
    return _timed(run_spmd, program, size=2, default_timeout=30.0)


def robust_blocks(grouped: bool) -> float:
    """Seconds for the Maronna and Combined blocks of a seeded 8-symbol
    day at M = 100: asked for together, or one after the other."""
    rng = np.random.default_rng(7)
    returns = rng.normal(0.0, 1e-3, (389, 8))
    returns[rng.random(returns.shape) < 0.02] *= 40.0
    asks = (
        [["maronna", "combined"]] if grouped else [["maronna"], ["combined"]]
    )
    t0 = time.perf_counter()
    for ctypes in asks:
        batch_pair_blocks(returns, 100, ctypes)
    return time.perf_counter() - t0


def bars(streamed: bool) -> float:
    """Seconds to turn a seeded 30-symbol day into 390 bar rows: interval
    batches through the pipeline component, or one batch call."""
    grid = TimeGrid(60)
    market = SyntheticMarket(
        default_universe(30), SyntheticMarketConfig(), seed=24
    )
    quotes = market.quotes(0)
    quotes = quotes[quotes["t"] < grid.smax * grid.delta_s]
    if not streamed:
        return _timed(accumulate_ohlc, quotes, grid, 30)
    cuts = np.searchsorted(
        quotes["t"], np.arange(grid.smax + 1) * grid.delta_s
    )
    component = BarAccumulatorComponent(grid, 30)
    ctx = Context(component.name, lambda *message: None)
    t0 = time.perf_counter()
    for s in range(grid.smax):
        component.on_message(ctx, "quotes", (s, quotes[cuts[s]:cuts[s + 1]]))
    return time.perf_counter() - t0


#: (numerator, its run, denominator, its run, budget, what passing means)
GATES = (
    ("disabled", partial(session, obs_enabled=False), "enabled", session,
     1.10, "disabled observability pays no measurable overhead"),
    ("sampled", partial(session, sampled=True), "bare", session,
     1.05, "live sampler stays under the 5% overhead budget"),
    ("untraced", world, "traced", partial(world, traced=True),
     1.10, "detached comm tracer pays no measurable overhead"),
    ("detached", world, "attached", partial(world, injected_pingpong),
     1.10, "detached fault injection pays no measurable overhead"),
    ("grouped", partial(robust_blocks, True),
     "separate", partial(robust_blocks, False),
     0.65, "Maronna and Combined at one window share one fixed point"),
    ("streamed", partial(bars, True), "batch", partial(bars, False),
     2.00, "the bar component is the batch kernel, one call an interval"),
)


def best_of(run_num, run_den) -> tuple[float, float]:
    """Min of :data:`N_RUNS` runs a side, the sides taking turns so a
    change in host speed lands on both alike."""
    t_num, t_den = [], []
    for _ in range(N_RUNS):
        t_num.append(run_num())
        t_den.append(run_den())
    return min(t_num), min(t_den)


def main() -> None:
    for num, run_num, den, run_den, budget, verdict in GATES:
        t_num, t_den = best_of(run_num, run_den)
        ratio = t_num / t_den
        print(f"{num} {t_num:.3f}s  {den} {t_den:.3f}s  "
              f"{num}/{den} {ratio:.2f}")
        if ratio >= budget:
            raise SystemExit(
                f"{num}/{den} ratio {ratio:.2f} >= {budget:.2f}: the "
                f"{num} path regressed"
            )
        print(f"ok: {verdict}")


if __name__ == "__main__":
    main()
