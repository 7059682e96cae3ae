"""Tests for the Maronna robust correlation estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corr.maronna import (
    DEFAULT_HUBER_K,
    MaronnaConfig,
    maronna_corr,
    maronna_corr_batched,
    maronna_weights,
)
from repro.corr.pearson import pearson_corr
from tests.oracle import frozen_maronna_corr_batched


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


class TestWeights:
    def test_full_weight_inside_radius(self):
        u1, u2 = maronna_weights(np.array([0.5, 1.0, 2.0]), k=2.5)
        np.testing.assert_array_equal(u1, 1.0)
        np.testing.assert_array_equal(u2, 1.0)

    def test_downweight_outside_radius(self):
        u1, u2 = maronna_weights(np.array([5.0]), k=2.5)
        assert u1[0] == pytest.approx(0.5)
        assert u2[0] == pytest.approx(0.25)

    def test_monotone_decreasing(self):
        d = np.linspace(0.1, 50, 200)
        u1, u2 = maronna_weights(d, k=2.5)
        assert np.all(np.diff(u1) <= 0)
        assert np.all(np.diff(u2) <= 0)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            maronna_weights(np.array([-1.0]), k=2.5)


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
