"""Section IV — the computational story: Approaches 1, 2 and 3.

Reproduces the paper's scaling arithmetic with measured numbers:

* the cost of one (pair, day, parameter set) job — the paper's Matlab
  unit ran "in approximately 2 seconds";
* Approach 1's memory commitment ("we were unable to read in multiple
  matrices due to memory constraints ... 680 such matrices" of 61×61 per
  day per spec);
* the paper's extrapolations: 1830 pairs × 20 days × 42 sets ≈ 854 hours
  serial, a year ≈ 445 days, 1000 pairs ≈ 53 years — re-derived from our
  measured per-job cost;
* the SGE-distributed makespan (Approach 2's mitigation) and the
  integrated Approach 3 speedup from sharing correlation series.

All job costs are read from the observability layer (the shared
``backtest.pair_day.seconds`` histogram and per-approach span trees)
rather than ad-hoc stopwatches, so the benchmark numbers are exactly the
numbers ``repro stats`` reports for the same runs.
"""

from benchmarks.conftest import emit
from repro import mpi
from repro.backtest.data import BarProvider
from repro.backtest.distributed import DistributedBacktester
from repro.backtest.matrices import MatrixSeriesBacktester
from repro.backtest.runner import (
    PAIR_DAY_HIST,
    SequentialBacktester,
    backtest_pair_day,
)
from repro.obs import MetricsRegistry, Obs, attach_to_comm
from repro.obs.live.profiler import (
    SamplingProfiler,
    attributed_fraction,
    render_flame_table,
    span_totals,
)
from repro.sge.scheduler import SgeScheduler
from repro.strategy.params import StrategyParams, paper_parameter_grid
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid

BASE = StrategyParams(m=60, w=30, y=8, rt=30, hp=20, st=10, d=0.001)


def _provider(n_symbols=8, seconds=23_400 // 2):
    market = SyntheticMarket(
        default_universe(n_symbols),
        SyntheticMarketConfig(trading_seconds=seconds),
        seed=2008,
    )
    return BarProvider(market, TimeGrid(30, trading_seconds=seconds))


def test_section4_per_job_cost_and_extrapolation(benchmark):
    """Benchmark the paper's unit of work; print the scaling arithmetic.

    Every timed invocation records into the job-cost histogram, so the
    per-job figure below is the histogram's mean — the same statistic the
    observability report publishes — not the harness's private stopwatch.
    """
    provider = _provider()
    prices = provider.prices(0)[:, [0, 1]]
    params = BASE.with_ctype("maronna")  # the expensive treatment
    obs = Obs(enabled=True)

    trades = benchmark(backtest_pair_day, prices, params, obs=obs)
    hist = obs.metrics.histogram(PAIR_DAY_HIST)
    assert hist.count > 0
    per_job = hist.mean

    paper_jobs_month = 1830 * 20 * 42
    serial_hours = paper_jobs_month * per_job / 3600
    paper_hours = paper_jobs_month * 2.0 / 3600  # the paper's ~2 s/job
    year_days = serial_hours * (250 / 20) / 24
    pairs_1000 = 1000 * 999 // 2
    jobs_1000 = pairs_1000 * 20 * 42
    years_1000 = jobs_1000 * per_job / 3600 / 24 / 365

    sge = SgeScheduler(n_slots=50)
    makespan = sge.simulate(
        {f"j{i}": per_job for i in range(10_000)}
    ).makespan * (paper_jobs_month / 10_000)

    text = (
        f"Unit job (pair, day, parameter set), Maronna, smax={provider.smax}: "
        f"{per_job * 1e3:.1f} ms ({len(trades)} trades)\n"
        f"\nPaper-scale extrapolations (1830 pairs x 20 days x 42 sets):\n"
        f"  serial, our per-job cost:      {serial_hours:10.1f} h\n"
        f"  serial, paper's 2 s/job:       {paper_hours:10.1f} h  (paper: ~854 h)\n"
        f"  one year (250 days), ours:     {year_days:10.1f} days "
        f"(paper: ~445 days at 2 s/job)\n"
        f"  1000 pairs, one month, ours:   {years_1000 * 365:10.1f} days "
        f"(paper: 19425 days = 53 years at 2 s/job)\n"
        f"  SGE, 50 slots, our cost:       {makespan / 3600:10.1f} h makespan\n"
    )
    emit(
        "section4_per_job",
        text,
        data={
            "per_job_seconds": hist.summary(),
            "serial_hours": serial_hours,
            "paper_hours": paper_hours,
            "year_days": year_days,
            "pairs_1000_days": years_1000 * 365,
            "sge_50_slots_makespan_hours": makespan / 3600,
        },
    )


def test_section4_approach_comparison(benchmark):
    """Time all three architectures on an identical workload."""
    provider = _provider(n_symbols=6, seconds=23_400 // 4)
    pairs = list(default_universe(6).pairs())  # 15 pairs
    # Vary only the trading thresholds so all sets of a treatment share one
    # correlation spec — the sharing the integrated architecture exploits.
    from dataclasses import replace

    levels = [
        replace(BASE, d=d, l=l)
        for d in (0.0005, 0.001, 0.002)
        for l in (1 / 3, 2 / 3)
    ]
    grid = [
        lvl.with_ctype(ct) for ct in ("pearson", "maronna", "combined")
        for lvl in levels
    ]  # 18 sets, 3 correlation specs
    days = [0]

    def root_wall(obs, name):
        """Wall seconds of the approach's root span in the trace."""
        spans = [s for s in obs.trace.to_list() if s["name"] == name]
        assert spans, f"no {name!r} span recorded"
        return sum(s["wall"] for s in spans)

    timings = {}
    job_hists = {}

    obs_a2 = Obs(enabled=True)
    with SamplingProfiler(obs_a2):
        store_a2 = SequentialBacktester(provider, obs=obs_a2).run(
            pairs, grid, days
        )
    timings["approach2_sequential"] = root_wall(obs_a2, "approach2")
    job_hists["approach2_sequential"] = obs_a2.metrics.histogram(
        PAIR_DAY_HIST
    )

    obs_a2s = Obs(enabled=True)
    store_a2s = SequentialBacktester(
        provider, share_correlation=True, obs=obs_a2s
    ).run(pairs, grid, days)
    timings["approach2_shared_corr"] = root_wall(obs_a2s, "approach2")
    job_hists["approach2_shared_corr"] = obs_a2s.metrics.histogram(
        PAIR_DAY_HIST
    )

    obs_a1 = Obs(enabled=True)
    matrix_bt = MatrixSeriesBacktester(provider, obs=obs_a1)
    store_a1 = matrix_bt.run(pairs, grid, days)
    timings["approach1_matrix_series"] = root_wall(obs_a1, "approach1")
    job_hists["approach1_matrix_series"] = obs_a1.metrics.histogram(
        PAIR_DAY_HIST
    )

    rank_dicts = []

    def run_integrated():
        def spmd(comm):
            local = Obs(enabled=True)
            attach_to_comm(comm, local)
            store = DistributedBacktester(provider).run(
                comm, pairs, grid, days, obs=local
            )
            return store, local.to_dict()

        results = mpi.run_spmd(spmd, size=2)
        rank_dicts.extend(d for _, d in results)
        return results[0][0]

    store_a3 = benchmark.pedantic(run_integrated, rounds=3, iterations=1)
    # Approach 3's wall per round = the slowest rank's root span; average
    # the per-round maxima across the benchmark rounds.
    a3_reg = MetricsRegistry.merged(d["metrics"] for d in rank_dicts)
    a3_walls = sorted(
        (
            s["wall"]
            for d in rank_dicts
            for s in d["spans"]
            if s["name"] == "approach3"
        ),
        reverse=True,
    )
    rounds = len(a3_walls) // 2  # two ranks per round
    assert rounds > 0
    timings["approach3_integrated(2 ranks)"] = sum(a3_walls[:rounds]) / rounds
    job_hists["approach3_integrated(2 ranks)"] = a3_reg.histogram(
        PAIR_DAY_HIST
    )

    assert store_a1 == store_a2 == store_a2s == store_a3

    # Where does Approach 2 actually spend its wall time?  The sampling
    # profiler answers from the same run that produced the timing above.
    profile = obs_a2.profile
    assert profile is not None and profile["n_samples"] > 0

    paper_day_bytes = MatrixSeriesBacktester.matrix_series_bytes(780, 100, 61)
    lines = ["Identical workload (15 pairs x 18 sets x 1 day), identical results:"]
    for name, seconds in timings.items():
        hist = job_hists[name]
        lines.append(
            f"  {name:<32} {seconds:8.2f} s"
            f"   ({hist.count} jobs, p50 {hist.quantile(0.5) * 1e3:.1f} ms)"
        )
    lines.append(
        f"\nApproach 1 memory committed (measured): "
        f"{matrix_bt.peak_matrix_bytes / 1e6:.1f} MB"
    )
    lines.append(
        f"Approach 1 at paper scale (61 stocks, Δs=30, M=100): "
        f"{paper_day_bytes / 1e6:.1f} MB per day per spec — the paper's "
        f"'680 such matrices ... for just one day t out of 20'"
    )
    lines.append("")
    lines.append(
        f"Approach 2 sampling profile "
        f"({attributed_fraction(profile):.0%} of samples span-attributed):"
    )
    lines.append(render_flame_table(profile, top=10))
    emit(
        "section4_approaches",
        "\n".join(lines),
        data={
            "timings_seconds": dict(timings),
            "job_histograms": {n: h.summary() for n, h in job_hists.items()},
            "approach1_peak_matrix_bytes": matrix_bt.peak_matrix_bytes,
            "paper_scale_day_bytes": paper_day_bytes,
            "approach2_profile": {
                "n_samples": profile["n_samples"],
                "attributed_fraction": attributed_fraction(profile),
                "span_seconds": dict(span_totals(profile)),
            },
        },
    )
