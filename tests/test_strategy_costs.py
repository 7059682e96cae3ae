"""Tests for implementation shortfalls (ExecutionModel)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.strategy.costs import ExecutionModel, execution_salt
from repro.strategy.positions import PairPosition


def mk_position(n_long=5, n_short=1):
    return PairPosition(
        entry_s=10,
        long_leg=0,
        n_long=n_long,
        n_short=n_short,
        entry_price_long=30.0,
        entry_price_short=130.0,
        entry_spread=-100.0,
        retracement_level=-95.0,
        retracement_direction=+1,
    )


class TestValidation:
    def test_defaults_frictionless(self):
        assert ExecutionModel().frictionless

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"commission_per_share": -0.01},
            {"slippage_frac": -1e-4},
            {"impact_coeff": -1e-4},
            {"fill_probability": 1.5},
            {"fill_probability": -0.1},
        ],
    )
    def test_rejects_bad(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionModel(**kwargs)

    def test_any_friction_clears_flag(self):
        assert not ExecutionModel(commission_per_share=0.01).frictionless
        assert not ExecutionModel(slippage_frac=1e-4).frictionless
        assert not ExecutionModel(fill_probability=0.9).frictionless


class TestRoundTripCost:
    def test_commission_counts_all_four_fills(self):
        model = ExecutionModel(commission_per_share=0.01)
        cost = model.round_trip_cost(mk_position(), 30.0, 130.0)
        # (5 + 1) shares, entry + exit => 12 share-fills at 1 cent.
        assert cost == pytest.approx(0.12)

    def test_slippage_proportional_to_traded_value(self):
        model = ExecutionModel(slippage_frac=1e-4)
        cost = model.round_trip_cost(mk_position(), 30.0, 130.0)
        traded = 2 * (5 * 30.0 + 1 * 130.0)
        assert cost == pytest.approx(1e-4 * traded)

    def test_impact_grows_with_size(self):
        model = ExecutionModel(impact_coeff=1e-4)
        small = model.round_trip_cost(mk_position(n_long=1), 30.0, 130.0)
        large = model.round_trip_cost(mk_position(n_long=100), 30.0, 130.0)
        assert large > small

    def test_impact_is_concave_in_shares(self):
        # sqrt law: quadrupling shares should less-than-quadruple the
        # per-dollar impact.
        model = ExecutionModel(impact_coeff=1e-4)
        c1 = model.round_trip_cost(mk_position(n_long=4), 30.0, 130.0)
        c2 = model.round_trip_cost(mk_position(n_long=16), 30.0, 130.0)
        # long-leg value scales 4x, sqrt(shares) scales 2x => cost < 8x.
        assert c2 < 8 * c1


class TestNetReturn:
    def test_frictionless_identity(self):
        model = ExecutionModel()
        assert model.net_return(0.01, mk_position(), 30.0, 130.0) == 0.01

    def test_costs_reduce_return(self):
        model = ExecutionModel(commission_per_share=0.01, slippage_frac=1e-4)
        net = model.net_return(0.01, mk_position(), 30.0, 130.0)
        assert net < 0.01

    def test_cost_against_basis(self):
        model = ExecutionModel(commission_per_share=0.01)
        pos = mk_position()
        net = model.net_return(0.0, pos, 30.0, 130.0)
        assert net == pytest.approx(-0.12 / pos.basis)

    @given(
        slip=st.floats(0, 1e-3),
        comm=st.floats(0, 0.05),
        gross=st.floats(-0.02, 0.02),
    )
    def test_net_never_exceeds_gross(self, slip, comm, gross):
        model = ExecutionModel(commission_per_share=comm, slippage_frac=slip)
        net = model.net_return(gross, mk_position(), 30.0, 130.0)
        assert net <= gross + 1e-15


class TestFillLottery:
    def test_always_fills_at_one(self):
        model = ExecutionModel(fill_probability=1.0)
        assert all(model.entry_fills(s) for s in range(100))

    def test_never_fills_at_zero(self):
        model = ExecutionModel(fill_probability=0.0)
        assert not any(model.entry_fills(s) for s in range(100))

    def test_deterministic(self):
        a = ExecutionModel(fill_probability=0.5, seed=3)
        b = ExecutionModel(fill_probability=0.5, seed=3)
        outcomes_a = [a.entry_fills(s, salt=7) for s in range(50)]
        outcomes_b = [b.entry_fills(s, salt=7) for s in range(50)]
        assert outcomes_a == outcomes_b

    def test_salt_decorrelates(self):
        model = ExecutionModel(fill_probability=0.5, seed=3)
        a = [model.entry_fills(s, salt=1) for s in range(200)]
        b = [model.entry_fills(s, salt=2) for s in range(200)]
        assert a != b

    def test_rate_approximates_probability(self):
        model = ExecutionModel(fill_probability=0.7, seed=0)
        fills = sum(model.entry_fills(s) for s in range(2000))
        assert abs(fills / 2000 - 0.7) < 0.05


class TestExecutionSalt:
    def test_distinct_for_distinct_cells(self):
        salts = {
            execution_salt((i, j), k)
            for i in range(5)
            for j in range(i + 1, 5)
            for k in range(10)
        }
        assert len(salts) == 10 * 10  # C(5,2)=10 pairs x 10 sets

    def test_stable(self):
        assert execution_salt((2, 7), 3) == execution_salt((2, 7), 3)


class TestEngineIntegration:
    def _scenario(self):
        from tests.test_strategy_engine import PARAMS, diverging_scenario

        return diverging_scenario() + (PARAMS,)

    def test_costs_shift_every_trade_down(self):
        from repro.strategy.engine import run_pair_day

        prices, corr, params = self._scenario()
        gross = run_pair_day(prices, corr, params)
        net = run_pair_day(
            prices, corr, params, execution=ExecutionModel(slippage_frac=1e-4)
        )
        assert len(gross) == len(net)
        for g, n in zip(gross, net):
            assert n.ret < g.ret
            assert (g.entry_s, g.exit_s, g.reason) == (n.entry_s, n.exit_s, n.reason)

    def test_lost_opportunity_skips_trades(self):
        from repro.strategy.engine import run_pair_day

        prices, corr, params = self._scenario()
        full = run_pair_day(prices, corr, params)
        sparse = run_pair_day(
            prices, corr, params,
            execution=ExecutionModel(fill_probability=0.0),
        )
        assert len(full) > 0
        assert sparse == []

    def test_streaming_equivalence_with_execution(self):
        from repro.strategy.engine import run_pair_day
        from tests.oracle import PairStrategy

        prices, corr, params = self._scenario()
        model = ExecutionModel(
            commission_per_share=0.005,
            slippage_frac=5e-5,
            fill_probability=0.6,
            seed=11,
        )
        batch = run_pair_day(prices, corr, params, execution=model, salt=9)
        strat = PairStrategy(params, prices.shape[0], execution=model, salt=9)
        stream = []
        for s in range(prices.shape[0]):
            t = strat.step(s, prices[s, 0], prices[s, 1], corr[s])
            if t is not None:
                stream.append(t)
        assert stream == batch

    def test_engines_agree_under_execution(self):
        from repro import mpi
        from repro.backtest.data import BarProvider
        from repro.backtest.distributed import DistributedBacktester
        from repro.backtest.runner import SequentialBacktester
        from repro.strategy.params import StrategyParams
        from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
        from repro.taq.universe import default_universe
        from repro.util.timeutil import TimeGrid

        cfg = SyntheticMarketConfig(trading_seconds=23_400 // 8)
        market = SyntheticMarket(default_universe(4), cfg, seed=5)
        provider = BarProvider(
            market, TimeGrid(30, trading_seconds=cfg.trading_seconds)
        )
        params = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=4, d=0.002)
        model = ExecutionModel(
            slippage_frac=5e-5, fill_probability=0.5, seed=42
        )
        pairs = [(0, 1), (2, 3), (0, 2)]
        seq = SequentialBacktester(provider, execution=model).run(
            pairs, [params], [0]
        )

        def spmd(comm):
            return DistributedBacktester(provider, execution=model).run(
                comm, pairs, [params], [0]
            )

        dist = mpi.run_spmd(spmd, size=2)[0]
        assert seq == dist
