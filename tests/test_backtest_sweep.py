"""Tests for the sweep driver."""

import pytest

from repro import mpi
from repro.backtest.distributed import DistributedBacktester
from repro.backtest.runner import SequentialBacktester
from repro.backtest.sweep import SweepConfig, run_sweep
from repro.corr.measures import CorrelationType
from repro.strategy.costs import execution_salt
from repro.strategy.params import StrategyParams


class TestSweepConfig:
    def test_defaults_valid(self):
        cfg = SweepConfig()
        assert cfg.build_universe().n_pairs() == 45
        assert len(cfg.build_grid()) == 42

    def test_n_levels_scales_grid(self):
        cfg = SweepConfig(n_levels=3)
        assert len(cfg.build_grid()) == 9

    def test_explicit_grid_wins(self):
        grid = (StrategyParams(m=20, w=10, y=3, rt=10, hp=5, st=3),)
        cfg = SweepConfig(grid=grid)
        assert cfg.build_grid() == list(grid)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_symbols": 1},
            {"n_days": 0},
            {"engine": "quantum"},  # the removed selectors are not fields
            {"ranks": 0},
            {"corr_backend": "batch"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            SweepConfig(**kwargs)

    def test_market_config_session_must_match(self):
        from repro.taq.synthetic import SyntheticMarketConfig

        with pytest.raises(ValueError, match="must match"):
            SweepConfig(
                trading_seconds=1200,
                market_config=SyntheticMarketConfig(trading_seconds=600),
            ).build_market()


class TestRunSweep:
    def test_complete_coverage(self, small_sweep):
        store, grid = small_sweep
        n_pairs = 15  # C(6, 2)
        assert len(store) == n_pairs * len(grid) * 2
        assert len(store.pairs) == n_pairs
        assert store.days == [0, 1]

    def test_grid_is_treatment_balanced(self, small_sweep):
        _, grid = small_sweep
        counts = {}
        for p in grid:
            counts[p.ctype] = counts.get(p.ctype, 0) + 1
        assert counts == {
            CorrelationType.PEARSON: 2,
            CorrelationType.MARONNA: 2,
            CorrelationType.COMBINED: 2,
        }

    def test_sequential_engine_equivalent(self, small_sweep):
        """The sweep has one engine: one rank == two ranks == Approach 2."""
        store, grid = small_sweep
        cfg = SweepConfig(
            n_symbols=6,
            n_days=2,
            n_levels=2,
            trading_seconds=23_400 // 4,
            ranks=1,
        )
        store1, grid1 = run_sweep(cfg)
        assert store1 == store
        assert grid1 == grid
        sequential = SequentialBacktester(cfg.build_provider()).run(
            list(cfg.build_universe().pairs()), grid, [0, 1]
        )
        assert sequential == store
        with pytest.raises(TypeError, match="engine"):
            SweepConfig(engine="sequential")

    def test_deterministic_across_rank_counts(self):
        base = dict(n_symbols=4, n_days=1, n_levels=1, trading_seconds=2400)
        a, _ = run_sweep(SweepConfig(ranks=1, **base))
        b, _ = run_sweep(SweepConfig(ranks=3, **base))
        assert a == b

    def test_seed_changes_market(self):
        import numpy as np

        base = dict(n_symbols=4, n_days=1, n_levels=1, trading_seconds=2400)
        a = SweepConfig(seed=1, **base).build_provider().prices(0)
        b = SweepConfig(seed=2, **base).build_provider().prices(0)
        assert not np.allclose(a, b)

    def test_produces_some_trades(self, small_sweep):
        store, _ = small_sweep
        assert store.n_trades > 0


class TestFailureManifest:
    """One bad (pair, day, parameter set) cell must not abort a sweep."""

    BASE = dict(n_symbols=4, n_days=2, n_levels=1, trading_seconds=2400)
    BAD_PAIR, BAD_K = (0, 1), 0

    @pytest.fixture
    def broken_cell(self, monkeypatch):
        """Make exactly the (BAD_PAIR, BAD_K) cell raise, every day — in
        the one place every engine runs a cell: ``DayBlock.scan``."""
        from repro.strategy.engine import DayBlock

        real = DayBlock.scan
        bad_salt = execution_salt(self.BAD_PAIR, self.BAD_K)

        def wrapper(self, *args, **kwargs):
            if kwargs.get("salt") == bad_salt:
                raise RuntimeError("synthetic cell failure")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(DayBlock, "scan", wrapper)

    def _sequential(self, on_error):
        """Approach 2 over the BASE study: (store, grid, failures)."""
        cfg = SweepConfig(**self.BASE)
        grid = cfg.build_grid()
        backtester = SequentialBacktester(cfg.build_provider())
        store = backtester.run(
            list(cfg.build_universe().pairs()), grid, [0, 1], on_error=on_error
        )
        return store, grid, backtester.last_failures

    def test_sequential_continue_collects_manifest(self, broken_cell):
        store, grid, failures = self._sequential("continue")
        assert [f.sort_key for f in failures] == [
            (0, self.BAD_PAIR, self.BAD_K),
            (1, self.BAD_PAIR, self.BAD_K),
        ]
        assert all(f.exc_type == "RuntimeError" for f in failures)
        assert all("synthetic cell failure" in f.traceback for f in failures)
        # The failed cells are absent; everything else was still swept.
        n_pairs, n_days = 6, 2
        assert len(store) == n_pairs * len(grid) * n_days - len(failures)

    def test_sequential_abort_raises_by_default(self, broken_cell):
        with pytest.raises(Exception, match="synthetic cell failure"):
            self._sequential("abort")

    def test_distributed_continue_matches_sequential(self, broken_cell):
        seq_store, _, seq_failures = self._sequential("continue")
        dist_failures = []
        dist_store, _ = run_sweep(
            SweepConfig(ranks=2, on_error="continue", **self.BASE),
            failures=dist_failures,
        )
        assert len(seq_failures) == 2
        assert dist_store == seq_store
        assert [f.sort_key for f in dist_failures] == [
            f.sort_key for f in seq_failures
        ]

    def test_distributed_manifest_identical_on_all_ranks(self, broken_cell):
        cfg = SweepConfig(on_error="continue", **self.BASE)
        provider = cfg.build_provider()
        grid = cfg.build_grid()
        pairs = list(cfg.build_universe().pairs())

        def spmd(comm):
            backtester = DistributedBacktester(provider)
            backtester.run(comm, pairs, grid, [0, 1], on_error="continue")
            return backtester.last_failures

        per_rank = mpi.run_spmd(spmd, size=2, default_timeout=30.0)
        assert per_rank[0] == per_rank[1]
        assert [f.sort_key for f in per_rank[0]] == [
            (0, self.BAD_PAIR, self.BAD_K),
            (1, self.BAD_PAIR, self.BAD_K),
        ]

    def test_config_validates_on_error(self):
        with pytest.raises(ValueError, match="on_error"):
            SweepConfig(on_error="ignore")
