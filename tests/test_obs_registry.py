"""Tests for repro.obs.registry: metrics primitives and cross-rank merge."""

import math
import pickle

import numpy as np
import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    WindowedHistogram,
    payload_nbytes,
    registry_snapshot,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_float_increments(self):
        c = Counter("x")
        c.inc(0.5)
        c.inc(0.25)
        assert c.value == pytest.approx(0.75)


class TestGauge:
    def test_tracks_last_and_max(self):
        g = Gauge("depth")
        g.set(3)
        g.set(10)
        g.set(2)
        assert g.last == 2.0
        assert g.max == 10.0
        assert g.n_sets == 3


class TestHistogramQuantiles:
    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 100, 1001])
    def test_matches_numpy_quantile(self, q, n):
        rng = np.random.default_rng(n)
        values = rng.exponential(size=n)
        h = Histogram("t")
        for v in values:
            h.observe(v)
        assert h.quantile(q) == pytest.approx(float(np.quantile(values, q)))

    def test_empty_is_nan(self):
        assert math.isnan(Histogram("t").quantile(0.5))
        assert Histogram("t").summary() == {"count": 0}

    def test_invalid_q(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("t").quantile(1.5)

    def test_summary_fields(self):
        h = Histogram("t")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["sum"] == pytest.approx(10.0)
        assert s["min"] == 1.0
        assert s["max"] == 4.0
        assert s["mean"] == pytest.approx(2.5)
        assert s["p50"] == pytest.approx(float(np.quantile([1, 2, 3, 4], 0.5)))
        assert set(s) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
        }


    @pytest.mark.parametrize("n", [1, 2, 37, 5000])
    def test_one_sort_trio_matches_numpy_and_quantile(self, n):
        """summary() and the live snapshot sort once; same numbers."""
        values = np.random.default_rng(n).exponential(size=n)
        reg = MetricsRegistry()
        h = reg.histogram("t")
        for v in values:
            h.observe(v)
        summary = h.summary()
        live = registry_snapshot(reg, quantiles=True)["histograms"]["t"]
        for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            assert summary[key] == live[key] == h.quantile(q)
            assert summary[key] == pytest.approx(
                float(np.quantile(values, q)), rel=1e-12
            )
        assert summary["min"] == values.min()
        assert summary["max"] == values.max()
        assert live["count"] == n and live["sum"] == summary["sum"]
        lean = registry_snapshot(reg)["histograms"]["t"]
        assert lean == {"count": n, "sum": summary["sum"]}


class TestWindowedHistogram:
    def _filled(self, n):
        values = np.random.default_rng(7).exponential(size=n)
        reg = MetricsRegistry()
        h = reg.windowed_histogram("lat")
        for v in values:
            h.observe(v)
        return reg, h, values

    def test_lifetime_count_and_sum_windowed_quantiles(self):
        window = WindowedHistogram.WINDOW
        reg, h, values = self._filled(3 * window + 17)
        assert reg.windowed_histogram("lat") is h
        assert len(h.values) == window
        assert sorted(h.values) == sorted(values[-window:])
        s = h.summary()
        assert s["count"] == len(values)
        assert s["sum"] == pytest.approx(values.sum())
        assert s["mean"] == pytest.approx(values.mean())
        assert s["p99"] == pytest.approx(np.quantile(values[-window:], 0.99))
        live = registry_snapshot(reg, quantiles=True)["histograms"]["lat"]
        assert live["count"] == len(values) and live["p99"] == s["p99"]

    def test_short_of_the_window_it_is_a_histogram(self):
        reg, h, values = self._filled(100)
        plain = Histogram("lat")
        for v in values:
            plain.observe(v)
        assert h.summary() == plain.summary()

    def test_prometheus_reports_lifetime_count(self):
        from repro.obs.live.export import render_prometheus

        reg, h, values = self._filled(WindowedHistogram.WINDOW + 5)
        assert f"lat_count {len(values)}" in render_prometheus(reg)


class TestDisabledRegistry:
    def test_hands_out_null_metric(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is NULL_METRIC
        assert reg.gauge("b") is NULL_METRIC
        assert reg.histogram("c") is NULL_METRIC
        assert reg.windowed_histogram("c") is NULL_METRIC
        assert reg.timer("d") is NULL_METRIC

    def test_stays_empty_after_use(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("a").inc(10)
        reg.gauge("b").set(1)
        reg.histogram("c").observe(2.0)
        with reg.timer("d"):
            pass
        assert reg.to_dict() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestMergeSemantics:
    def _rank(self, counter, gauge, samples):
        reg = MetricsRegistry(enabled=True)
        reg.counter("msgs").inc(counter)
        reg.gauge("depth").set(gauge)
        for v in samples:
            reg.histogram("lat").observe(v)
        return reg.to_dict()

    def test_counters_add(self):
        merged = MetricsRegistry.merged(
            [self._rank(3, 1, []), self._rank(7, 2, [])]
        )
        assert merged.counters["msgs"].value == 10

    def test_gauges_keep_max(self):
        merged = MetricsRegistry.merged(
            [self._rank(0, 9, []), self._rank(0, 4, [])]
        )
        assert merged.gauges["depth"].max == 9.0
        assert merged.gauges["depth"].n_sets == 2

    def test_histogram_merge_is_exact(self):
        a = [0.1, 0.2, 0.7]
        b = [0.4, 0.5]
        merged = MetricsRegistry.merged(
            [self._rank(0, 0, a), self._rank(0, 0, b)]
        )
        pooled = a + b
        assert sorted(merged.histograms["lat"].values) == sorted(pooled)
        assert merged.histograms["lat"].quantile(0.5) == pytest.approx(
            float(np.quantile(pooled, 0.5))
        )

    def test_interchange_is_picklable(self):
        d = self._rank(1, 2, [0.5])
        assert pickle.loads(pickle.dumps(d)) == d


class TestPayloadNbytes:
    def test_numpy_exact(self):
        arr = np.zeros((4, 4))
        assert payload_nbytes(arr) == arr.nbytes

    def test_containers_sum(self):
        a, b = np.zeros(3), np.zeros(5)
        assert payload_nbytes((a, b)) == a.nbytes + b.nbytes
        assert payload_nbytes({"x": a}) >= a.nbytes

    def test_none_and_strings(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("abcd") == 4


class TestTimer:
    def test_records_elapsed(self):
        reg = MetricsRegistry(enabled=True)
        with reg.timer("t"):
            pass
        h = reg.histograms["t"]
        assert h.count == 1
        assert h.values[0] >= 0.0
