"""Tests for measure dispatch (repro.corr.measures) and the series and
matrix-series shapes built on the batch kernels (repro.corr.batch)."""

import numpy as np
import pytest

from repro.corr.batch import corr_matrix_series, corr_series
from repro.corr.combined import combined_corr, combined_corr_batched
from repro.corr.maronna import maronna_corr
from repro.corr.measures import CorrelationType, corr_matrix, pairwise_corr
from repro.corr.pearson import pearson_corr, pearson_matrix


class TestCorrelationType:
    def test_parse_strings(self):
        assert CorrelationType.parse("pearson") is CorrelationType.PEARSON
        assert CorrelationType.parse("MARONNA") is CorrelationType.MARONNA
        assert CorrelationType.parse("Combined") is CorrelationType.COMBINED

    def test_parse_passthrough(self):
        assert CorrelationType.parse(CorrelationType.PEARSON) is CorrelationType.PEARSON

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown correlation type"):
            CorrelationType.parse("spearman")

    def test_three_treatments(self):
        assert len(CorrelationType) == 3


class TestCombined:
    def test_is_average_of_pearson_and_maronna(self, rng):
        x, y = rng.normal(size=(2, 120))
        expected = 0.5 * (pearson_corr(x, y) + maronna_corr(x, y))
        assert combined_corr(x, y) == pytest.approx(expected, abs=1e-9)

    def test_batched_matches_scalar(self, rng):
        xw = rng.normal(size=(8, 40))
        yw = rng.normal(size=(8, 40))
        out = combined_corr_batched(xw, yw)
        for b in range(8):
            assert out[b] == pytest.approx(combined_corr(xw[b], yw[b]), abs=1e-8)

    def test_intermediate_under_contamination(self, rng):
        x = rng.normal(size=150)
        y = 0.8 * x + 0.3 * rng.normal(size=150)
        x[5] = 50.0
        p = pearson_corr(x, y)
        m = maronna_corr(x, y)
        c = combined_corr(x, y)
        lo, hi = sorted((p, m))
        assert lo <= c <= hi


class TestPairwiseDispatch:
    @pytest.mark.parametrize("ctype", ["pearson", "maronna", "combined"])
    def test_dispatch(self, ctype, rng):
        x, y = rng.normal(size=(2, 80))
        value = pairwise_corr(x, y, ctype)
        assert -1.0 <= value <= 1.0

    def test_pearson_dispatch_exact(self, rng):
        x, y = rng.normal(size=(2, 80))
        assert pairwise_corr(x, y, "pearson") == pearson_corr(x, y)


class TestCorrSeries:
    @pytest.mark.parametrize("ctype", ["pearson", "maronna", "combined"])
    def test_alignment_across_measures(self, ctype, rng):
        x, y = rng.normal(size=(2, 120))
        m = 30
        series = corr_series(x, y, m, ctype)
        assert series.shape == (91,)
        for k in (0, 45, 90):
            direct = pairwise_corr(x[k : k + m], y[k : k + m], ctype)
            assert series[k] == pytest.approx(direct, abs=1e-7)

    def test_chunking_boundary_consistency(self, rng):
        """A window's value does not depend on which other windows share
        the call: the series of any stretch is the full series' slice."""
        x, y = rng.normal(size=(2, 100))
        full = corr_series(x, y, 20, "maronna")
        for lo, hi in ((0, 20), (7, 40), (33, 100), (80, 100)):
            np.testing.assert_array_equal(
                corr_series(x[lo:hi], y[lo:hi], 20, "maronna"),
                full[lo : hi - 19],
            )

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            corr_series(np.ones((5, 2)), np.ones((5, 2)), 3)


class TestCorrMatrix:
    @pytest.mark.parametrize("ctype", ["pearson", "maronna", "combined"])
    def test_symmetric_unit_diag(self, ctype, correlated_returns):
        c = corr_matrix(correlated_returns[:60], ctype)
        np.testing.assert_allclose(c, c.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(c), 1.0)
        assert np.all(np.abs(c) <= 1.0 + 1e-12)

    def test_pearson_fast_path_matches(self, correlated_returns):
        w = correlated_returns[:60]
        np.testing.assert_allclose(
            corr_matrix(w, "pearson"), pearson_matrix(w), atol=1e-12
        )

    def test_partial_pairs(self, correlated_returns):
        w = correlated_returns[:60]
        partial = corr_matrix(w, "pearson", pairs=[(0, 1), (2, 4)])
        full = pearson_matrix(w)
        assert partial[0, 1] == pytest.approx(full[0, 1])
        assert partial[2, 4] == pytest.approx(full[2, 4])
        assert partial[4, 2] == partial[2, 4]
        assert partial[0, 2] == 0.0
        assert partial[0, 0] == 0.0  # partial matrices carry no diagonal

    def test_partial_pairs_validated(self, correlated_returns):
        with pytest.raises(ValueError, match="invalid pair"):
            corr_matrix(correlated_returns[:60], "pearson", pairs=[(0, 0)])
        with pytest.raises(ValueError, match="invalid pair"):
            corr_matrix(correlated_returns[:60], "pearson", pairs=[(0, 99)])

    def test_measures_agree_on_clean_gaussian(self, correlated_returns):
        w = correlated_returns[:300]
        p = corr_matrix(w, "pearson")
        m = corr_matrix(w, "maronna")
        np.testing.assert_allclose(p, m, atol=0.12)


class TestCorrMatrixSeries:
    @pytest.mark.parametrize("ctype", ["pearson", "maronna"])
    def test_matches_per_window_matrix(self, ctype, correlated_returns):
        r = correlated_returns[:80, :4]
        m = 30
        series = corr_matrix_series(r, m, ctype)
        assert series.shape == (51, 4, 4)
        for k in (0, 25, 50):
            np.testing.assert_allclose(
                series[k], corr_matrix(r[k : k + m], ctype), atol=1e-7
            )

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            corr_matrix_series(np.ones((10, 3)), 20)
