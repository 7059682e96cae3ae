"""Tests for the all-pairs batch correlation kernels — the one path.

The load-bearing invariant: a :func:`batch_pair_series` block is
bitwise-identical to the per-window oracle (``tests/oracle.py``) and to a
per-pair :func:`corr_series` loop — every equality below is
``np.array_equal``, never ``allclose``.
"""

import json

import numpy as np
import pytest

from repro import mpi
from repro.backtest.data import BarProvider
from repro.backtest.runner import SequentialBacktester
from repro.bars.returns import sliding_windows
from repro.corr.batch import (
    BatchWorkspace,
    batch_pair_blocks,
    batch_pair_series,
    corr_matrix_series,
    corr_series,
)
from repro.corr.maronna import MaronnaConfig, maronna_corr_batched
from repro.corr.measures import CorrelationType, all_pairs
from repro.corr.parallel import ParallelCorrelationEngine
from repro.elastic.sharding import shard_pairs
from repro.obs import Obs
from repro.strategy.engine import align_corr_series
from repro.strategy.params import StrategyParams
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid
from tests.oracle import reference_pair_series

CTYPES = ("pearson", "maronna", "combined")


def random_returns(rng, T, n, outlier_prob=0.02, constant_col=False):
    """Return rows with occasional fat-tailed outliers, optionally a
    zero-variance column (the degenerate-window edge case)."""
    r = rng.normal(0.0, 1e-3, (T, n))
    r[rng.random((T, n)) < outlier_prob] *= 40.0
    if constant_col:
        r[:, 0] = 0.0
    return r


def per_pair_series(returns, m, ctype, config=None, pairs=None):
    """One :func:`corr_series` call per pair — the Approach-2 job shape."""
    if pairs is None:
        pairs = all_pairs(returns.shape[1])
    return np.column_stack(
        [corr_series(returns[:, i], returns[:, j], m, ctype, config) for i, j in pairs]
    )


class TestHelpers:
    def test_all_pairs(self):
        assert all_pairs(3) == [(0, 1), (0, 2), (1, 2)]
        assert len(all_pairs(61)) == 1830

    def test_workspace_reuse_and_nbytes(self):
        """A role's allocation serves every request that fits in it — a
        change of M reshapes the same memory — and only grows."""
        ws = BatchWorkspace()
        a = ws.get("x", (1310, 50))
        assert a.shape == (1310, 50) and a.flags["C_CONTIGUOUS"]
        for shape in ((1310, 50), (655, 100), (327, 200), (6, 10, 5)):
            b = ws.get("x", shape)
            assert b.shape == shape and b.flags["C_CONTIGUOUS"]
            assert np.shares_memory(a, b)
            assert ws.nbytes == a.nbytes
        c = ws.get("x", (1311, 50))
        assert not np.shares_memory(a, c)
        ws.get("y", (3,))
        assert ws.nbytes == c.nbytes + 3 * 8

    def test_one_workspace_serves_every_window_of_a_run(self):
        """Across the M = 50 / 100 / 200 blocks of a day the workspace is
        allocated once: the Pearson roles do not depend on M, and the
        robust blocks hold no scratch of batch size at all."""
        rng = np.random.default_rng(3)
        returns = random_returns(rng, 800, 3)
        ws = BatchWorkspace()
        batch_pair_blocks(returns, 50, CTYPES, workspace=ws)
        held = ws.get("pearson.centred", (1,))
        before = ws.nbytes
        for m in (100, 200, 50):
            batch_pair_blocks(returns, m, CTYPES, workspace=ws)
            assert np.shares_memory(held, ws.get("pearson.centred", (1,)))
        assert ws.nbytes == before
        robust_only = BatchWorkspace()
        batch_pair_blocks(returns, 50, ["maronna", "combined"], workspace=robust_only)
        assert robust_only.nbytes == 0


class TestPropertyBatchEqualsScalar:
    """Random shapes, windows and data: batch == per-pair == per-window
    oracle to the last ulp."""

    @pytest.mark.parametrize("trial", range(8))
    def test_random_universe(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 8))
        m = int(rng.integers(3, 30))
        T = m + int(rng.integers(1, 90))
        returns = random_returns(
            rng, T, n, constant_col=bool(trial % 3 == 0)
        )
        ctype = CTYPES[trial % 3]
        ws = BatchWorkspace()
        batch = batch_pair_series(returns, m, ctype, workspace=ws)
        assert batch.shape == (T - m + 1, n * (n - 1) // 2)
        np.testing.assert_array_equal(batch, per_pair_series(returns, m, ctype))
        np.testing.assert_array_equal(
            batch, reference_pair_series(returns, m, ctype)
        )

    @pytest.mark.parametrize("ctype", ["maronna", "combined"])
    def test_matches_per_window_reference(self, ctype):
        rng = np.random.default_rng(7)
        returns = random_returns(rng, 40, 4)
        batch = batch_pair_series(returns, 12, ctype)
        ref = reference_pair_series(returns, 12, ctype)
        np.testing.assert_array_equal(batch, ref)

    def test_pearson_reference_is_the_rolling_series(self):
        rng = np.random.default_rng(8)
        returns = random_returns(rng, 60, 5)
        ref = reference_pair_series(returns, 20, "pearson")
        np.testing.assert_array_equal(ref, per_pair_series(returns, 20, "pearson"))
        np.testing.assert_array_equal(ref, batch_pair_series(returns, 20, "pearson"))

    def test_subset_pairs_and_out_buffer(self):
        rng = np.random.default_rng(9)
        returns = random_returns(rng, 80, 6)
        pairs = [(0, 5), (3, 1), (2, 4)]
        out = np.empty((80 - 15 + 1, 3))
        got = batch_pair_series(returns, 15, "combined", pairs=pairs, out=out)
        assert got is out
        np.testing.assert_array_equal(
            got, per_pair_series(returns, 15, "combined", pairs=pairs)
        )
        np.testing.assert_array_equal(
            got, reference_pair_series(returns, 15, "combined", pairs=pairs)
        )

    def test_chunk_boundaries_cannot_change_results(self, monkeypatch):
        """Shrink the Pearson chunk budget to force many tiny chunks, and
        hand the robust kernel the pairs in another order and in other
        company; results must not move by a single bit."""
        import repro.corr.batch as batch_mod

        rng = np.random.default_rng(10)
        returns = random_returns(rng, 70, 5)
        pairs = all_pairs(5)
        expected = {c: batch_pair_series(returns, 16, c) for c in CTYPES}
        monkeypatch.setattr(batch_mod, "_CHUNK_ELEMENTS", 97)
        for c in CTYPES:
            np.testing.assert_array_equal(
                batch_pair_series(returns, 16, c), expected[c]
            )
            np.testing.assert_array_equal(
                batch_pair_series(returns, 16, c, pairs=pairs[::-1]),
                expected[c][:, ::-1],
            )
            np.testing.assert_array_equal(
                batch_pair_series(returns, 16, c, pairs=pairs[3:7]),
                expected[c][:, 3:7],
            )
            # The one-pair job shares its call with no other pair; the
            # oracle evaluates one window a call.
            np.testing.assert_array_equal(
                per_pair_series(returns, 16, c), expected[c]
            )
            np.testing.assert_array_equal(
                reference_pair_series(returns, 16, c), expected[c]
            )

    @pytest.mark.parametrize("live_share", [0.0, 1.0])
    def test_chunk_cap_and_compaction_cannot_change_results(self, live_share):
        """Every window of a block put through the kernel alone (0.0) or
        all of them at once in shuffled order (1.0), MAD = 0 and constant
        windows included: which windows share a call, and in what order,
        is a cost, not a result."""
        rng = np.random.default_rng(16)
        returns = random_returns(rng, 90, 4, constant_col=True)
        returns[:, 1] = np.round(returns[:, 1] * 400.0)  # MAD = 0 windows
        m = 14
        blocks = batch_pair_blocks(returns, m, ["maronna", "combined"])
        pairs = all_pairs(4)
        xw = np.concatenate([sliding_windows(returns[:, i], m) for i, _ in pairs])
        yw = np.concatenate([sliding_windows(returns[:, j], m) for _, j in pairs])
        expected = blocks[CorrelationType.MARONNA].T.ravel()
        if live_share == 0.0:
            got = np.array([
                maronna_corr_batched(xw[r : r + 1], yw[r : r + 1])[0]
                for r in range(len(xw))
            ])
        else:
            order = rng.permutation(len(xw))
            got = np.empty(len(xw))
            got[order] = maronna_corr_batched(xw[order], yw[order])
        np.testing.assert_array_equal(got, expected)
        for ctype, block in blocks.items():
            np.testing.assert_array_equal(
                reference_pair_series(returns, m, ctype), block
            )

    def test_nan_padding_alignment_matches_scalar(self):
        """The aligned (NaN warm-up embedded) series the engines feed the
        strategy are identical, NaNs included."""
        rng = np.random.default_rng(11)
        smax = 90
        returns = random_returns(rng, smax - 1, 4)
        m = 20
        batch = batch_pair_series(returns, m, "maronna")
        for p, (i, j) in enumerate(all_pairs(4)):
            a = align_corr_series(batch[:, p], smax, m)
            b = align_corr_series(
                corr_series(returns[:, i], returns[:, j], m, "maronna"), smax, m
            )
            np.testing.assert_array_equal(a, b)
            assert np.isnan(a[:m]).all()


class TestMaronnaConvergenceMask:
    def test_one_pair_never_converges(self):
        """A pair whose fixed point can't settle within max_iter must hit
        the cap without perturbing any other pair's trajectory."""
        rng = np.random.default_rng(12)
        returns = random_returns(rng, 30, 4, outlier_prob=0.0)
        # Pair (0, 1) gets violent alternating outliers; a tight tolerance
        # plus a tiny iteration cap leaves it unconverged.
        returns[::2, 0] += 50.0
        returns[1::2, 1] -= 50.0
        capped = MaronnaConfig(max_iter=3, tol=1e-14)
        loose = MaronnaConfig(max_iter=200, tol=1e-14)
        m = 12
        batch_capped = batch_pair_series(returns, m, "maronna", capped)
        batch_loose = batch_pair_series(returns, m, "maronna", loose)
        # The cap genuinely bit somewhere on the outlier pair (column 0)...
        assert not np.array_equal(batch_capped[:, 0], batch_loose[:, 0])
        # ...yet capped results still match the per-pair and per-window
        # paths bitwise and stay valid correlations.
        np.testing.assert_array_equal(
            batch_capped, per_pair_series(returns, m, "maronna", capped)
        )
        np.testing.assert_array_equal(
            batch_capped, reference_pair_series(returns, m, "maronna", capped)
        )
        assert np.isfinite(batch_capped).all()
        assert (np.abs(batch_capped) <= 1.0).all()

    def test_unconverged_windows_are_counted(self):
        """A window stopped by ``max_iter`` returns its last iterate; the
        counters say how many did, and how much iterating was done."""
        rng = np.random.default_rng(12)
        returns = random_returns(rng, 30, 4, outlier_prob=0.0)
        returns[::2, 0] += 50.0
        returns[1::2, 1] -= 50.0
        m, n_series = 12, 6 * (30 - 12 + 1)

        def counters(config):
            obs = Obs()
            batch_pair_series(returns, m, "maronna", config, obs=obs)
            return obs.to_dict()["metrics"]["counters"]

        capped = counters(MaronnaConfig(max_iter=3, tol=1e-14))
        assert 0 < capped["corr.batch.unconverged"] <= n_series
        assert capped["corr.batch.fixed_point_windows"] == n_series
        # Never more than max_iter steps a window.
        assert capped["corr.batch.fixed_point_steps"] <= 3 * n_series
        behaved = counters(None)
        assert behaved["corr.batch.unconverged"] == 0
        assert behaved["corr.batch.fixed_point_windows"] == n_series
        assert (
            n_series
            <= behaved["corr.batch.fixed_point_steps"]
            < MaronnaConfig().max_iter * n_series
        )

    def test_step_count_is_a_property_of_the_data(self):
        """Row-steps count updates made, so a block's figure is the sum
        of its pairs' figures, in whatever company or order they run."""
        rng = np.random.default_rng(17)
        returns = random_returns(rng, 80, 3)

        def steps(pairs):
            obs = Obs()
            batch_pair_series(returns, 15, "maronna", pairs=pairs, obs=obs)
            return obs.to_dict()["metrics"]["counters"][
                "corr.batch.fixed_point_steps"
            ]

        pairs = all_pairs(3)
        expected = steps(pairs)
        assert steps(pairs[::-1]) == expected
        assert sum(steps([pair]) for pair in pairs) == expected


class TestObsAttribution:
    def test_batch_metrics_and_span(self):
        rng = np.random.default_rng(13)
        returns = random_returns(rng, 60, 4)
        obs = Obs(enabled=True)
        with obs.trace.span("test-root"):
            batch_pair_series(returns, 20, "pearson", obs=obs)
        d = obs.to_dict()
        counters = d["metrics"]["counters"]
        assert counters["corr.batch.pairs"] == 6
        assert counters["corr.batch.windows"] == 6 * (60 - 20 + 1)
        assert counters["corr.batch.chunks"] >= 1
        assert "corr.batch.pair_series.seconds" in d["metrics"]["histograms"]
        assert "corr.batch" in json.dumps(d["spans"])

    def test_grouped_block_counts_one_fixed_point(self):
        """Series and values are counted per treatment, fixed-point
        windows per evaluation: asking for Maronna and Combined together
        makes two blocks out of one evaluation."""
        rng = np.random.default_rng(18)
        returns = random_returns(rng, 60, 4)
        n_win = 60 - 20 + 1
        obs = Obs()
        batch_pair_blocks(
            returns, 20, ["pearson", "maronna", "combined"], obs=obs
        )
        counters = obs.to_dict()["metrics"]["counters"]
        assert counters["corr.batch.pairs"] == 3 * 6
        assert counters["corr.batch.windows"] == 3 * 6 * n_win
        assert counters["corr.batch.fixed_point_windows"] == 6 * n_win
        separate = Obs()
        for ctype in ("maronna", "combined"):
            batch_pair_series(returns, 20, ctype, obs=separate)
        counters = separate.to_dict()["metrics"]["counters"]
        assert counters["corr.batch.fixed_point_windows"] == 2 * 6 * n_win
        # A Pearson block never touches the fixed point.
        pearson = Obs()
        batch_pair_series(returns, 20, "pearson", obs=pearson)
        assert not any(
            "fixed_point" in name or "unconverged" in name
            for name in pearson.to_dict()["metrics"]["counters"]
        )

    def test_disabled_obs_records_nothing(self):
        rng = np.random.default_rng(14)
        returns = random_returns(rng, 40, 3)
        obs = Obs(enabled=False)
        batch_pair_series(returns, 10, "pearson", obs=obs)
        assert obs.to_dict()["metrics"]["counters"] == {}


class TestValidation:
    def test_rejects_bad_pairs(self):
        returns = np.zeros((30, 3))
        with pytest.raises(ValueError, match="invalid pair"):
            batch_pair_series(returns, 10, "pearson", pairs=[(0, 3)])
        with pytest.raises(ValueError, match="invalid pair"):
            batch_pair_series(returns, 10, "pearson", pairs=[(1, 1)])
        # No pairs at all is valid — a rank that drew an empty block still
        # gets a well-formed one, whatever the measure.
        for ctype in CTYPES:
            assert batch_pair_series(returns, 10, ctype, pairs=[]).shape == (21, 0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"\(T, n\)"):
            batch_pair_series(np.zeros(10), 5, "pearson")
        with pytest.raises(ValueError, match="at least"):
            batch_pair_series(np.zeros((4, 3)), 5, "pearson")
        with pytest.raises(ValueError, match="out must be"):
            batch_pair_series(
                np.zeros((30, 3)), 10, "pearson", out=np.zeros((2, 2))
            )

    @pytest.mark.parametrize("ctype", CTYPES)
    def test_rejects_non_finite(self, ctype):
        """One NaN would read back as a whole series of 0.0 — refuse it,
        naming the first offending cell."""
        rng = np.random.default_rng(15)
        for bad in (np.nan, np.inf):
            returns = random_returns(rng, 40, 3)
            returns[17, 2] = bad
            returns[30, 1] = bad
            with pytest.raises(ValueError, match=r"finite.*row 17, column 2"):
                batch_pair_series(returns, 10, ctype)
            with pytest.raises(ValueError, match=r"finite.*row 17, column 2"):
                corr_matrix_series(returns, 10, ctype)
            with pytest.raises(ValueError, match=r"finite.*row 17, column 1"):
                corr_series(returns[:, 0], returns[:, 2], 10, ctype)


class TestMatrixSeriesBackend:
    @pytest.mark.parametrize("ctype", ["maronna", "combined"])
    def test_batch_equals_scalar(self, correlated_returns, ctype):
        r = correlated_returns[:50, :4]
        got = corr_matrix_series(r, 20, ctype)
        ref = reference_pair_series(r, 20, ctype)
        for p, (i, j) in enumerate(all_pairs(4)):
            np.testing.assert_array_equal(got[:, i, j], ref[:, p])
            np.testing.assert_array_equal(got[:, j, i], ref[:, p])
        assert (got[:, np.arange(4), np.arange(4)] == 1.0).all()

    def test_rejects_unknown_backend(self, correlated_returns):
        """The implementation selector is gone, not merely ignored."""
        with pytest.raises(TypeError, match="backend"):
            corr_matrix_series(correlated_returns[:50], 20, backend="batch")


class TestParallelEngineBackend:
    @pytest.mark.parametrize("mpi_backend", ["thread", "process"])
    def test_pair_series_bitwise_across_backends(
        self, correlated_returns, mpi_backend
    ):
        r = correlated_returns[:90]
        # Five pairs spread over three ranks, then two pairs — which
        # leaves the last rank an empty block.
        for pairs in (
            [(0, 1), (2, 3), (1, 5), (0, 4), (3, 5)],
            [(0, 1), (2, 3)],
        ):

            def prog(comm):
                return ParallelCorrelationEngine("combined").pair_series(
                    comm, r, 25, pairs
                )

            results = mpi.run_spmd(prog, size=3, backend=mpi_backend)
            for got in results:
                assert set(got) == set(pairs)
                for i, j in pairs:
                    np.testing.assert_array_equal(
                        got[(i, j)], corr_series(r[:, i], r[:, j], 25, "combined")
                    )

    @pytest.mark.parametrize("mpi_backend", ["thread", "process"])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_grouped_equals_separate_equals_oracle(
        self, correlated_returns, mpi_backend, size
    ):
        """One grouped evaluation of {maronna, combined} (plus the
        window's Pearson) per shard — what an Approach-3 rank runs — is,
        bit for bit, the separate blocks and the per-window oracle, also
        on a rank whose shard is empty."""
        r = correlated_returns[:70]
        m = 25
        pairs = [(0, 1), (2, 3)]  # the third rank draws an empty shard
        wanted = ["pearson", "maronna", "combined"]

        def prog(comm):
            mine = shard_pairs(pairs, comm.size)[comm.rank]
            return mine, batch_pair_blocks(r, m, wanted, pairs=mine)

        results = mpi.run_spmd(prog, size=size, backend=mpi_backend)
        assert sorted(p for mine, _ in results for p in mine) == pairs
        for ctype in wanted:
            separate = batch_pair_series(r, m, ctype, pairs=pairs)
            np.testing.assert_array_equal(
                separate, reference_pair_series(r, m, ctype, pairs=pairs)
            )
            for mine, blocks in results:
                block = blocks[CorrelationType.parse(ctype)]
                assert block.shape == (r.shape[0] - m + 1, len(mine))
                for p, pair in enumerate(mine):
                    np.testing.assert_array_equal(
                        block[:, p], separate[:, pairs.index(pair)]
                    )

    def test_matrix_series_batch_matches_serial(self, correlated_returns):
        # Two symbols are one pair: the second rank's block is empty.
        for n_symbols, mpi_backend in ((4, "thread"), (2, "thread"), (2, "process")):
            r = correlated_returns[:50, :n_symbols]

            def prog(comm):
                return ParallelCorrelationEngine("maronna").matrix_series(
                    comm, r, 20
                )

            results = mpi.run_spmd(prog, size=2, backend=mpi_backend)
            expected = corr_matrix_series(r, 20, "maronna")
            np.testing.assert_array_equal(results[0], expected)
            np.testing.assert_array_equal(results[1], expected)

    def test_rejects_unknown_backend(self):
        """The implementation selector is gone, not merely ignored."""
        with pytest.raises(TypeError, match="backend"):
            ParallelCorrelationEngine("pearson", backend="batch")


class TestStoreFedBatchSession:
    def test_store_fed_batch_equals_in_memory_scalar(self, tmp_path):
        """A store-backed provider (zero-copy memmap reader) feeding the
        shared batch cache must reproduce the in-memory engine whose every
        job recomputes its own per-pair series."""
        from repro.store import StoreQuoteSource, StoreReader, ingest_synthetic

        cfg = SyntheticMarketConfig(trading_seconds=3600, quote_rate=0.8)
        market = SyntheticMarket(default_universe(5), cfg, seed=77)
        ingest_synthetic(tmp_path, market, n_days=2, n_shards=2)

        grid_t = TimeGrid(30, trading_seconds=3600)
        base = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=5, d=0.002)
        grid = [base, base.with_ctype("maronna"), base.with_ctype("combined")]
        pairs = [(0, 1), (1, 2), (2, 4), (0, 3)]
        days = [0, 1]

        source = StoreQuoteSource(StoreReader(tmp_path))
        store_fed = SequentialBacktester(
            BarProvider(source, grid_t), share_correlation=True
        ).run(pairs, grid, days)
        in_memory = SequentialBacktester(
            BarProvider(market, grid_t), share_correlation=False
        ).run(pairs, grid, days)
        assert store_fed == in_memory
