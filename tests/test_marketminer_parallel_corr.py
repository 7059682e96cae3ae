"""Tests for the multi-engine 'Parallel Correlation Engine' pipeline."""

import numpy as np
import pytest

from repro.marketminer.components.correlation import CorrelationEngineComponent
from repro.marketminer.session import build_figure1_workflow, run_figure1_session
from repro.strategy.params import StrategyParams
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid

PARAMS = StrategyParams(m=30, w=15, y=5, rt=15, hp=10, st=5, d=0.002)


@pytest.fixture(scope="module")
def setup():
    cfg = SyntheticMarketConfig(trading_seconds=23_400 // 4, quote_rate=0.95)
    market = SyntheticMarket(default_universe(6), cfg, seed=21)
    grid = TimeGrid(30, trading_seconds=cfg.trading_seconds)
    pairs = list(market.universe.pairs())
    return market, grid, pairs


class TestBlockEngineComponent:
    def test_pairs_validated(self):
        with pytest.raises(ValueError, match="invalid pair"):
            CorrelationEngineComponent(4, 10, pairs=[(0, 4)])
        with pytest.raises(ValueError, match="invalid pair"):
            CorrelationEngineComponent(4, 10, pairs=[(1, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            CorrelationEngineComponent(4, 10, pairs=[(0, 1), (1, 0)])

    def test_pairs_normalised(self):
        comp = CorrelationEngineComponent(4, 10, pairs=[(3, 1)])
        assert comp.pairs == [(1, 3)]


@pytest.mark.parametrize("n_engines", [2, 3, 5])
class TestEquivalence:
    def test_matches_single_engine(self, setup, n_engines):
        market, grid, pairs = setup
        single = run_figure1_session(
            build_figure1_workflow(market, grid, pairs, [PARAMS]), size=2
        )
        multi = run_figure1_session(
            build_figure1_workflow(
                market, grid, pairs, [PARAMS], n_corr_engines=n_engines
            ),
            size=4,
        )
        assert single["pair_trading"]["trades"] == multi["pair_trading"]["trades"]
        # The block engines collectively emitted the same interval count.
        single_count = single["correlation"]["matrices_emitted"]
        for name, res in multi.items():
            if name.startswith("correlation_"):
                assert res["matrices_emitted"] == single_count


class TestTopology:
    def test_engine_count_capped_by_pairs(self, setup):
        market, grid, _ = setup
        wf = build_figure1_workflow(
            market, grid, [(0, 1), (2, 3)], [PARAMS], n_corr_engines=5
        )
        engines = [n for n in wf.components if n.startswith("correlation")]
        assert len(engines) == 2  # idle engines dropped

    def test_rejects_zero_engines(self, setup):
        market, grid, pairs = setup
        with pytest.raises(ValueError, match="n_corr_engines"):
            build_figure1_workflow(
                market, grid, pairs, [PARAMS], n_corr_engines=0
            )

    def test_block_engines_spread_over_ranks(self, setup):
        from repro.marketminer.scheduler import WorkflowRunner

        market, grid, pairs = setup
        wf = build_figure1_workflow(
            market, grid, pairs, [PARAMS], n_corr_engines=3
        )
        rank_map = WorkflowRunner(wf).rank_map(4)
        engine_ranks = {
            rank_map.rank_of(n)
            for n in wf.components
            if n.startswith("correlation_")
        }
        assert len(engine_ranks) == 3  # heavy components spread out


class TestJoinErrors:
    def test_overlapping_blocks_rejected(self, setup):
        """Two engines claiming the same pair is a wiring bug; the join
        detects it rather than silently double-counting."""
        from repro import mpi
        from repro.marketminer.components.strategy import PairTradingComponent
        from repro.marketminer.graph import Workflow
        from repro.marketminer.scheduler import WorkflowRunner
        from repro.mpi.inproc import SpmdFailure
        from tests.test_marketminer_graph import Source

        class TwoBlocks(Source):
            def __init__(self, name):
                super().__init__(name=name)

            def generate(self, ctx):
                ctx.emit("out", (0, {(0, 1): 0.5}))

        wf = Workflow()
        wf.add(TwoBlocks("block_a"))
        wf.add(TwoBlocks("block_b"))
        strat = PairTradingComponent(
            pairs=[(0, 1)], grid=[PARAMS], smax=40, m=30
        )
        wf.add(strat)

        class Closes(Source):
            def generate(self, ctx):
                ctx.emit("out", (0, np.array([1.0, 2.0])))

        wf.add(Closes(name="closes_src"))
        wf.connect("closes_src", "out", "pair_trading", "closes")
        wf.connect("block_a", "out", "pair_trading", "corr")
        wf.connect("block_b", "out", "pair_trading", "corr")

        def spmd(comm):
            return WorkflowRunner(wf).run(comm)

        with pytest.raises(SpmdFailure, match="overlap"):
            mpi.run_spmd(spmd, size=1)
