"""Tests for the Maronna robust correlation estimator."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bars.returns import sliding_windows
from repro.corr import maronna
from repro.corr.batch import batch_pair_blocks
from repro.corr.maronna import (
    DEFAULT_HUBER_K,
    MaronnaConfig,
    maronna_corr,
    maronna_corr_batched,
    maronna_fixed_point,
    robust_start,
)
from repro.corr.measures import CorrelationType, all_pairs
from repro.corr.pearson import pearson_corr
from repro.elastic.sharding import shard_pairs
from repro.obs import Obs
from tests.oracle import (
    N_WORK_BUFFERS,
    frozen_maronna_corr_batched,
    frozen_maronna_fixed_point,
)


def bivariate_normal(rng, rho, n):
    z = rng.normal(size=(n, 2))
    y = rho * z[:, 0] + np.sqrt(1 - rho**2) * z[:, 1]
    return z[:, 0], y


class TestConfig:
    def test_default_huber_k(self):
        # 95% chi-square quantile, 2 dof: sqrt(5.991...) ~ 2.448.
        assert DEFAULT_HUBER_K == pytest.approx(2.4477, abs=1e-3)

    @pytest.mark.parametrize(
        "kwargs", [{"k": 0.0}, {"max_iter": 0}, {"tol": -1.0}]
    )
    def test_rejects_bad(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            MaronnaConfig(**kwargs)


class TestCleanData:
    def test_agrees_with_pearson_on_gaussian(self, rng):
        for rho in (0.0, 0.4, 0.8, -0.6):
            x, y = bivariate_normal(rng, rho, 800)
            assert maronna_corr(x, y) == pytest.approx(
                pearson_corr(x, y), abs=0.06
            )

    def test_perfectly_correlated(self):
        x = np.random.default_rng(1).normal(size=100)
        assert maronna_corr(x, 2 * x) > 0.99
        assert maronna_corr(x, -x) < -0.99

    def test_shift_scale_invariant(self, rng):
        x, y = bivariate_normal(rng, 0.5, 300)
        base = maronna_corr(x, y)
        assert maronna_corr(5 * x + 100, 0.1 * y - 3) == pytest.approx(base, abs=1e-6)

    def test_symmetric_in_arguments(self, rng):
        x, y = bivariate_normal(rng, 0.5, 200)
        assert maronna_corr(x, y) == pytest.approx(maronna_corr(y, x), abs=1e-9)

    def test_constant_series_zero(self):
        x = np.ones(50)
        y = np.random.default_rng(2).normal(size=50)
        assert maronna_corr(x, y) == 0.0


class TestRobustness:
    def test_single_outlier_barely_moves_maronna(self, rng):
        x, y = bivariate_normal(rng, 0.7, 200)
        clean = maronna_corr(x, y)
        x_dirty = x.copy()
        x_dirty[13] = 100.0
        dirty = maronna_corr(x_dirty, y)
        pearson_clean = pearson_corr(x, y)
        pearson_dirty = pearson_corr(x_dirty, y)
        assert abs(dirty - clean) < 0.05
        assert abs(pearson_dirty - pearson_clean) > 0.3
        assert abs(dirty - clean) < abs(pearson_dirty - pearson_clean) / 5

    def test_ten_percent_contamination(self, rng):
        x, y = bivariate_normal(rng, 0.8, 300)
        x_dirty = x.copy()
        idx = rng.choice(300, size=30, replace=False)
        x_dirty[idx] = rng.normal(scale=50, size=30)
        assert maronna_corr(x_dirty, y) > 0.55

    def test_paper_claim_less_sensitive_to_outliers(self, rng):
        """The paper: Maronna "is much less sensitive to outliers"."""
        moves_maronna, moves_pearson = [], []
        for trial in range(10):
            gen = np.random.default_rng(trial)
            x, y = bivariate_normal(gen, 0.6, 150)
            xd = x.copy()
            xd[trial] = 30.0
            moves_maronna.append(abs(maronna_corr(xd, y) - maronna_corr(x, y)))
            moves_pearson.append(abs(pearson_corr(xd, y) - pearson_corr(x, y)))
        assert np.mean(moves_maronna) < 0.2 * np.mean(moves_pearson)


class TestBatched:
    def test_matches_scalar(self, rng):
        xw = rng.normal(size=(15, 60))
        yw = 0.5 * xw + rng.normal(size=(15, 60))
        batched = maronna_corr_batched(xw, yw)
        for b in range(15):
            assert batched[b] == pytest.approx(
                maronna_corr(xw[b], yw[b]), abs=1e-6
            )

    def test_bounded(self, rng):
        xw = rng.normal(size=(50, 30))
        yw = rng.normal(size=(50, 30))
        out = maronna_corr_batched(xw, yw)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_mixed_degenerate_rows(self, rng):
        xw = rng.normal(size=(3, 40))
        yw = rng.normal(size=(3, 40))
        xw[1] = 5.0  # constant row
        out = maronna_corr_batched(xw, yw)
        assert out[1] == 0.0
        assert np.isfinite(out).all()

    def test_rejects_window_below_three(self):
        with pytest.raises(ValueError):
            maronna_corr_batched(np.ones((2, 2)), np.ones((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            maronna_corr_batched(np.ones((2, 5)), np.ones((2, 6)))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 1000))
    def test_always_finite_and_bounded(self, seed):
        gen = np.random.default_rng(seed)
        xw = gen.standard_t(df=2, size=(4, 25))
        yw = gen.standard_t(df=2, size=(4, 25))
        out = maronna_corr_batched(xw, yw)
        assert np.isfinite(out).all()
        assert np.all(np.abs(out) <= 1.0)

    def test_convergence_insensitive_to_max_iter_beyond_enough(self, rng):
        x, y = bivariate_normal(rng, 0.5, 100)
        a = maronna_corr(x, y, MaronnaConfig(max_iter=60))
        b = maronna_corr(x, y, MaronnaConfig(max_iter=200))
        assert a == pytest.approx(b, abs=1e-6)


def adversarial_batch(rng, kind, B, m):
    """A seeded ``(B, m)`` window pair of one of the shapes real bars and
    hostile inputs take (see :class:`TestFrozenDefinition`)."""
    x = rng.normal(size=(B, m))
    y = 0.6 * x + 0.8 * rng.normal(size=(B, m))
    if kind == "outliers":  # 5 % gross outliers in each series
        x[rng.random((B, m)) < 0.05] *= 40.0
        y[rng.random((B, m)) < 0.05] *= -40.0
    elif kind == "integers":  # MAD = 0 on many rows -> std fallback
        x, y = np.round(0.7 * x), np.round(0.7 * y)
    elif kind == "constant-rows":  # degenerate -> 0.0
        x[::3] = 2.5
        y[1::4] = 0.0
    elif kind == "identical":
        y = x.copy()
    elif kind == "heavy-tails":  # Student t with 1.5 degrees of freedom
        x = rng.standard_t(1.5, size=(B, m))
        y = 0.6 * x + 0.8 * rng.standard_t(1.5, size=(B, m))
    elif kind == "tiny":
        x *= 1e-4
        y *= 1e-4
    elif kind == "mixed":  # every branch inside one batch
        x[::5] = np.round(x[::5])
        y[::7] = 1.0
        x[2::9] *= 1e-4
        x[rng.random((B, m)) < 0.05] *= 40.0
    else:
        assert kind == "plain"
    return x, y


class TestFrozenDefinition:
    """The production kernel against the estimator's frozen definition
    (``tests/oracle.py``): equal bit for bit, whatever the batch holds
    and wherever ``max_iter`` stops it."""

    KINDS = (
        "plain", "outliers", "integers", "constant-rows", "identical",
        "tiny", "mixed",
    )

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_frozen_kernel(self, kind, seed):
        gen = np.random.default_rng([seed, self.KINDS.index(kind)])
        B = int(gen.choice([1, 2, 17, 300]))
        m = int(gen.choice([3, 4, 20, 50, 101]))
        x, y = adversarial_batch(gen, kind, B, m)
        for max_iter in (1, 2, 3, 7, 20, 60):
            cfg = MaronnaConfig(
                max_iter=max_iter, tol=float(gen.choice([1e-8, 1e-14, 1e-3]))
            )
            np.testing.assert_array_equal(
                maronna_corr_batched(x, y, cfg),
                frozen_maronna_corr_batched(x, y, cfg),
            )

    def test_single_window_is_the_batch_row(self):
        """``B == 1`` (what the per-window oracle calls) and the same
        window inside a batch of 200 give the same bits."""
        gen = np.random.default_rng(5)
        x, y = adversarial_batch(gen, "mixed", 200, 30)
        whole = maronna_corr_batched(x, y)
        for row in (0, 1, 5, 7, 199):
            one = maronna_corr_batched(x[row : row + 1], y[row : row + 1])
            assert one[0] == whole[row]
            assert one[0] == frozen_maronna_corr_batched(
                x[row : row + 1], y[row : row + 1]
            )[0]

    def test_memory_layout_cannot_change_a_bit(self):
        """The frozen body reduced a Fortran-ordered batch's std fallback
        in another order than a C-ordered one's (last-ulp differences on
        the MAD = 0 rows); the kernel works on its own C-ordered copy, so
        every layout gives what the frozen body gives for C order."""
        gen = np.random.default_rng(7)
        x, y = adversarial_batch(gen, "integers", 700, 20)
        expect = frozen_maronna_corr_batched(x, y)
        got = maronna_corr_batched(np.asfortranarray(x), np.asfortranarray(y))
        np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(
            maronna_corr_batched(x[::-1][::-1], y), expect
        )

    def test_inputs_are_not_written(self):
        gen = np.random.default_rng(8)
        x, y = adversarial_batch(gen, "outliers", 50, 20)
        x0, y0 = x.copy(), y.copy()
        maronna_corr_batched(x, y)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(y, y0)


class TestPairwiseReplica:
    """The fact that makes the C kernel bitwise: its sum is NumPy's
    pairwise ``np.add.reduce`` of a row, operation for operation.  If
    NumPy changes its reduction order, this fails first and names it."""

    @pytest.mark.parametrize("stride", [1, 3])
    def test_add_reduce_is_numpys(self, stride):
        gen = np.random.default_rng(stride)
        for n in range(1101):
            size = n * stride
            buf = gen.normal(size=size) * 10.0 ** gen.integers(-8, 9, size)
            buf[gen.random(size) < 0.05] = -0.0
            if n % 10 == 0:
                buf[:] = -0.0  # a sum of negative zeros is +0.0
            want = np.add.reduce(buf[::stride])
            got = maronna._KERNEL.add_reduce(buf.ctypes.data, n, stride)
            assert np.float64(got).tobytes() == want.tobytes(), (n, got, want)


def both_fixed_points(x, y, cfg):
    """The kernel's and the frozen NumPy step's ``(corr, row_steps,
    unconverged)`` on one ``(B, M)`` window batch from its robust start."""
    B, m = x.shape
    (tx, sx), (ty, sy) = robust_start(x), robust_start(y)
    out = np.empty((B, 1))
    kernel = maronna_fixed_point(
        np.stack([x, y]).reshape(2, B * m), m,
        np.array([[tx, sx], [ty, sy]]), np.array([[0, 1]]), m, cfg, out,
    )
    work = np.empty((N_WORK_BUFFERS, B, m))
    work[0], work[1] = x, y
    frozen = frozen_maronna_fixed_point(work, B, tx, ty, sx, sy, cfg)
    return (out[:, 0], *kernel), frozen


class TestKernelEqualsFrozenStep:
    """The C kernel against the NumPy step it replaced
    (``tests/oracle.py``): the same correlations, ``row_steps`` and
    ``unconverged``, bit for bit."""

    KINDS = (
        "plain", "heavy-tails", "integers", "constant-rows", "outliers",
        "mixed",
    )
    #: Around 8 (one accumulator block) and 128 (the pairwise split).
    MS = (3, 5, 7, 8, 9, 16, 50, 100, 127, 128, 129, 200, 257, 390)

    @pytest.mark.parametrize("m", MS)
    def test_equals_frozen_step(self, m):
        for kind in self.KINDS:
            gen = np.random.default_rng([m, self.KINDS.index(kind)])
            x, y = adversarial_batch(gen, kind, 24, m)
            # max_iter 2 leaves windows unconverged; 60 is the default.
            for cfg in (MaronnaConfig(max_iter=2), MaronnaConfig()):
                (corr, steps, stuck), frozen = both_fixed_points(x, y, cfg)
                np.testing.assert_array_equal(corr, frozen[0], err_msg=kind)
                assert (steps, stuck) == frozen[1:], kind
                np.testing.assert_array_equal(
                    corr, frozen_maronna_corr_batched(x, y, cfg), err_msg=kind
                )

    def test_zero_mad_falls_back_to_std_and_constant_is_zero(self):
        gen = np.random.default_rng(31)
        x, y = adversarial_batch(gen, "integers", 40, 20)
        x[:5] = np.where(np.arange(20) < 15, 1.0, gen.normal(size=20))
        y[5:8] = 3.0
        _, sx = robust_start(x)
        assert (np.median(np.abs(x[:5] - 1.0), axis=1) == 0.0).all()
        assert (sx[:5] > 0.0).all()  # the std fallback
        (corr, steps, stuck), frozen = both_fixed_points(x, y, MaronnaConfig())
        np.testing.assert_array_equal(corr, frozen[0])
        assert (steps, stuck) == frozen[1:]
        assert (corr[5:8] == 0.0).all()

    def test_max_iter_exhausted(self):
        gen = np.random.default_rng(32)
        x, y = adversarial_batch(gen, "outliers", 30, 40)
        cfg = MaronnaConfig(max_iter=1, tol=1e-14)
        (corr, steps, stuck), frozen = both_fixed_points(x, y, cfg)
        np.testing.assert_array_equal(corr, frozen[0])
        assert (steps, stuck) == frozen[1:] == (30, 30)

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e-160, 1e-200])
    def test_extreme_scales(self, scale):
        """Where the scatter overflows or underflows (inf, NaN and
        subnormal determinants), the kernel still takes the frozen
        step's path, never its own shortcut."""
        gen = np.random.default_rng(34)
        x, y = adversarial_batch(gen, "outliers", 30, 40)
        x, y = x * scale, y * scale
        x[::7] *= 1e10
        with np.errstate(all="ignore"):
            (corr, steps, stuck), frozen = both_fixed_points(
                x, y, MaronnaConfig()
            )
        np.testing.assert_array_equal(corr, frozen[0])
        assert (steps, stuck) == frozen[1:]

    @pytest.mark.parametrize("mode", ["late-start", "halt", "never-moves"])
    def test_hostile_days(self, mode):
        """The damaged days the engines trade (``TestHostileDays``):
        every block equals the frozen step pair by pair, counters too."""
        from tests.test_backtest_engines import BASE, _hostile_provider

        provider = _hostile_provider(mode)
        cfg = MaronnaConfig()
        for day in (0, 1):
            returns = provider.returns(day)
            pairs = all_pairs(returns.shape[1])
            for m in (BASE.m, 50):
                obs = Obs()
                blocks = batch_pair_blocks(
                    returns, m, ["maronna", "combined"], cfg, pairs, obs
                )
                steps = stuck = 0
                for p, (i, j) in enumerate(pairs):
                    x = np.ascontiguousarray(sliding_windows(returns[:, i], m))
                    y = np.ascontiguousarray(sliding_windows(returns[:, j], m))
                    _, frozen = both_fixed_points(x, y, cfg)
                    np.testing.assert_array_equal(
                        blocks[CorrelationType.MARONNA][:, p], frozen[0]
                    )
                    np.testing.assert_array_equal(
                        blocks[CorrelationType.MARONNA][:, p],
                        frozen_maronna_corr_batched(x, y, cfg),
                    )
                    steps += frozen[1]
                    stuck += frozen[2]
                counters = obs.to_dict()["metrics"]["counters"]
                assert counters["corr.batch.fixed_point_steps"] == steps
                assert counters["corr.batch.unconverged"] == stuck


class TestGeometry:
    def test_refuses_what_would_read_out_of_bounds(self):
        """The C loop trusts its indices, so the wrapper checks them."""
        series = np.zeros((2, 40))
        start = np.ones((2, 2, 31))
        pairs = np.array([[0, 1]])
        cfg = MaronnaConfig()
        maronna_fixed_point(series, 1, start, pairs, 10, cfg, np.empty((31, 1)))
        bad = [
            (series, 1, start, pairs, 11, np.empty((31, 1))),  # past the end
            (series, 2, start, pairs, 10, np.empty((31, 1))),
            (series, 1, start, np.array([[0, 2]]), 10, np.empty((31, 1))),
            (series, 1, start, np.array([[-1, 1]]), 10, np.empty((31, 1))),
            (series, 1, start[:, :, :30], pairs, 10, np.empty((31, 1))),
            (series, 1, start, pairs, 10, np.empty((31, 2))),
            (series, 1, start, pairs, 10, np.empty((31, 2))[:, :1]),
        ]
        for series_, step, start_, pairs_, m, out in bad:
            with pytest.raises(ValueError, match="geometry"):
                maronna_fixed_point(series_, step, start_, pairs_, m, cfg, out)


class TestThreads:
    def test_two_threads_at_once_give_the_serial_bits(self):
        """ctypes drops the GIL for the kernel call, so the thread
        backend's ranks run their shards in it at the same time; each
        rank must still get exactly the serial result."""
        gen = np.random.default_rng(33)
        returns = gen.standard_t(3.0, size=(300, 6)) * 1e-3
        shards = shard_pairs(all_pairs(6), 2)
        wanted = ["maronna", "combined"]
        serial = [
            batch_pair_blocks(returns, 40, wanted, pairs=mine) for mine in shards
        ]
        barrier = threading.Barrier(2)
        got = [[], []]

        def rank(r):
            barrier.wait(timeout=30)
            for _ in range(4):
                got[r].append(
                    batch_pair_blocks(returns, 40, wanted, pairs=shards[r])
                )

        threads = [threading.Thread(target=rank, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        for r in (0, 1):
            assert len(got[r]) == 4
            for blocks in got[r]:
                for ctype, block in serial[r].items():
                    np.testing.assert_array_equal(blocks[ctype], block)
