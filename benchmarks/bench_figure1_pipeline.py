"""Figure 1 — the MarketMiner pipeline, built and run end-to-end.

Regenerates the architecture figure as a topology listing and benchmarks
streaming one synthetic trading day through the full component chain
(collector → cleaning → bars → technical analysis → correlation engine →
pair trading strategy → order sink) over the MPI substrate.
"""

from benchmarks.conftest import emit
from repro.marketminer.session import build_figure1_workflow, run_figure1_session
from repro.strategy.params import StrategyParams
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid

PARAMS = StrategyParams(m=60, w=30, y=8, rt=30, hp=20, st=10, d=0.001)


def test_figure1_pipeline_session(benchmark):
    cfg = SyntheticMarketConfig(trading_seconds=23_400 // 4, quote_rate=0.9)
    market = SyntheticMarket(default_universe(8), cfg, seed=2008)
    grid_time = TimeGrid(30, trading_seconds=cfg.trading_seconds)
    pairs = list(market.universe.pairs())  # all 28 pairs

    def build_and_run():
        # Components are stateful; each round streams through a fresh build.
        workflow = build_figure1_workflow(
            market, grid_time, pairs, [PARAMS], day=0
        )
        return workflow, run_figure1_session(workflow, size=3)

    workflow, results = benchmark.pedantic(build_and_run, rounds=3, iterations=1)

    assert results["bar_accumulator"]["bars_emitted"] == grid_time.smax
    n_trades = sum(len(v) for v in results["pair_trading"]["trades"].values())
    sink = results["order_sink"]
    assert sink["open_pairs_at_close"] == 0

    from repro.marketminer.scheduler import WorkflowRunner

    rank_map = WorkflowRunner(workflow).rank_map(3)
    placement = "\n".join(
        f"  rank {r}: {', '.join(map(str, rank_map.components_of(r)))}"
        for r in range(3)
    )

    # The figure's Parallel Correlation Engine: same day, 3 block engines.
    parallel_wf = build_figure1_workflow(
        market, grid_time, pairs, [PARAMS], day=0, n_corr_engines=3
    )
    parallel_results = run_figure1_session(
        parallel_wf, size=4, collect_stats=True
    )
    assert (
        parallel_results["pair_trading"]["trades"]
        == results["pair_trading"]["trades"]
    )
    comm_profile = "\n".join(
        f"  rank {r}: {s['messages_local']} local / "
        f"{s['messages_remote']} cross-rank "
        f"({', '.join(s['components'])})"
        for r, s in parallel_results["_runtime"].items()
    )

    text = (
        workflow.describe()
        + "\n\nPlacement over 3 ranks:\n"
        + placement
        + f"\n\nOne day through the pipeline: {grid_time.smax} bars, "
        f"{results['correlation']['matrices_emitted']} correlation matrices, "
        f"{n_trades} trades, {sink['accepted_orders']} orders, "
        f"cleaning dropped {results['cleaning']['rejected_outlier']} outlier "
        f"and {results['cleaning']['rejected_crossed']} crossed quotes "
        f"of {results['cleaning']['total']}."
        + "\n\nParallel Correlation Engine variant (3 block engines over 4 "
        "ranks, identical trades), communication profile:\n"
        + comm_profile
    )
    data = {
        "bars": grid_time.smax,
        "matrices": results["correlation"]["matrices_emitted"],
        "trades": n_trades,
        "orders": sink["accepted_orders"],
        "cleaning": {
            key: results["cleaning"][key]
            for key in ("total", "rejected_outlier", "rejected_crossed")
        },
        "placement": {
            str(r): list(map(str, rank_map.components_of(r))) for r in range(3)
        },
        "parallel_engine_ranks": {
            str(r): {
                "components": list(s["components"]),
                "messages_local": s["messages_local"],
                "messages_remote": s["messages_remote"],
            }
            for r, s in parallel_results["_runtime"].items()
        },
    }
    emit("figure1_pipeline", text, data)
