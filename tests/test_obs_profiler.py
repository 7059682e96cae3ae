"""Sampling profiler: attribution, interchange, merging, rendering.

The acceptance invariant is the issue's criterion: an Approach-2 backtest
run inside ``with SamplingProfiler(obs)`` attributes at least 90% of its
sampled wall time to named obs spans (the span tree covers the engine's
whole run), with the result store unchanged by profiling.
"""

import time

import pytest

from repro.backtest.data import BarProvider
from repro.backtest.runner import SequentialBacktester
from repro.obs import Obs, build_report, render_text
from repro.obs.live import (
    PROFILE_SCHEMA,
    SamplingProfiler,
    attributed_fraction,
    merge_profiles,
    render_flame_table,
    span_totals,
)
from repro.obs.live.profiler import NO_SPAN
from repro.strategy.params import StrategyParams, paper_parameter_grid
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid


def _provider(n_symbols=6, seconds=23_400 // 4):
    market = SyntheticMarket(
        default_universe(n_symbols),
        SyntheticMarketConfig(trading_seconds=seconds),
        seed=2008,
    )
    return BarProvider(market, TimeGrid(30, trading_seconds=seconds))


def _profile_dict(spans, n_samples=0, interval=0.005, wall=0.0):
    stacks = {
        f"{span};mod:outer;{leaf}": seconds
        for span, leaves in spans.items()
        for leaf, seconds in leaves.items()
    }
    return {
        "schema": PROFILE_SCHEMA,
        "interval": interval,
        "n_samples": n_samples,
        "wall": wall,
        "spans": spans,
        "stacks": stacks,
    }


class TestApproach2Attribution:
    def test_profiled_backtest_attributes_90_percent(self):
        provider = _provider()
        pairs = list(default_universe(6).pairs())
        base = StrategyParams(m=60, w=30, y=8, rt=30, hp=20, st=10, d=0.001)
        grid = [base.with_ctype(ct) for ct in ("pearson", "maronna")]

        obs = Obs(enabled=True)
        with SamplingProfiler(obs, interval=0.002):
            store = SequentialBacktester(provider, obs=obs).run(
                pairs, grid, [0]
            )

        profile = obs.profile
        assert profile is not None
        assert profile["schema"] == PROFILE_SCHEMA
        assert profile["n_samples"] > 0
        assert attributed_fraction(profile) >= 0.90

        # Profiling must not perturb the results.
        plain = SequentialBacktester(provider).run(pairs, grid, [0])
        assert store == plain

    def test_unprofiled_run_leaves_profile_unset(self):
        provider = _provider(n_symbols=4, seconds=1800)
        pairs = [(0, 1)]
        params = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=5, d=0.001)
        obs = Obs(enabled=True)
        SequentialBacktester(provider, obs=obs).run(pairs, [params], [0])
        assert obs.profile is None


class TestSamplingProfilerUnit:
    def test_live_sampling_attributes_open_span(self):
        obs = Obs(enabled=True)
        with SamplingProfiler(obs, interval=0.001) as prof:
            with obs.trace.span("busy"):
                t0 = time.perf_counter()
                x = 0.0
                while time.perf_counter() - t0 < 0.2:
                    x += sum(i * i for i in range(200))
        profile = prof.to_dict()
        assert profile["n_samples"] > 0
        assert "busy" in profile["spans"]
        busy = span_totals(profile).get("busy", 0.0)
        assert busy > 0.0
        # stop() folded the same profile into the obs handle.
        assert obs.profile is not None
        assert obs.profile["n_samples"] == profile["n_samples"]

    def test_to_dict_shapes_spans_and_stacks(self):
        prof = SamplingProfiler(interval=0.01)
        prof.samples[("spanA", ("mod:f", "mod:g"))] = 3
        prof.samples[(NO_SPAN, ("mod:h",))] = 1
        prof.n_samples = 4
        d = prof.to_dict()
        assert d["schema"] == PROFILE_SCHEMA
        assert d["spans"]["spanA"] == {"mod:g": pytest.approx(0.03)}
        assert d["spans"][NO_SPAN] == {"mod:h": pytest.approx(0.01)}
        assert d["stacks"]["spanA;mod:f;mod:g"] == pytest.approx(0.03)

    def test_start_twice_raises(self):
        prof = SamplingProfiler(interval=0.05)
        prof.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                prof.start()
        finally:
            prof.stop()

    def test_stop_folds_into_existing_profile(self):
        obs = Obs(enabled=True)
        obs.profile = _profile_dict({"old": {"mod:f": 1.0}}, n_samples=5)
        prof = SamplingProfiler(obs, interval=0.05)
        prof.start()
        prof.stop()
        assert obs.profile["n_samples"] >= 5
        assert "old" in obs.profile["spans"]


class TestProfileAlgebra:
    def test_merge_sums_and_skips_falsy(self):
        a = _profile_dict(
            {"day": {"mod:f": 1.0}}, n_samples=10, interval=0.005, wall=2.0
        )
        b = _profile_dict(
            {"day": {"mod:f": 0.5, "mod:g": 0.25}, "corr": {"mod:h": 1.0}},
            n_samples=4,
            interval=0.010,
            wall=1.0,
        )
        merged = merge_profiles([a, None, b, {}])
        assert merged["n_samples"] == 14
        assert merged["interval"] == 0.010  # max, not sum
        assert merged["wall"] == pytest.approx(3.0)
        assert merged["spans"]["day"]["mod:f"] == pytest.approx(1.5)
        assert merged["spans"]["day"]["mod:g"] == pytest.approx(0.25)
        assert merged["spans"]["corr"]["mod:h"] == pytest.approx(1.0)
        assert merged["stacks"]["day;mod:outer;mod:f"] == pytest.approx(1.5)

    def test_span_totals_sorted_descending(self):
        profile = _profile_dict(
            {"small": {"mod:f": 0.1}, "big": {"mod:g": 2.0, "mod:h": 1.0}}
        )
        totals = span_totals(profile)
        assert list(totals) == ["big", "small"]
        assert totals["big"] == pytest.approx(3.0)

    def test_attributed_fraction(self):
        profile = _profile_dict(
            {"work": {"mod:f": 3.0}, NO_SPAN: {"mod:g": 1.0}}
        )
        assert attributed_fraction(profile) == pytest.approx(0.75)
        assert attributed_fraction(_profile_dict({})) == 0.0

    def test_render_flame_table_limits_rows(self):
        spans = {f"span{i}": {"mod:f": float(10 - i)} for i in range(6)}
        table = render_flame_table(_profile_dict(spans, n_samples=60), top=3)
        assert "sampling profile: 60 samples" in table
        assert "span0" in table
        assert "span5" not in table  # beyond top=3


class TestProfileInReport:
    def test_build_report_merges_per_rank_profiles(self):
        per_rank = {}
        for rank in (0, 1):
            obs = Obs(enabled=True)
            obs.metrics.counter("events").inc()
            obs.profile = _profile_dict(
                {"day": {"mod:f": 1.0 + rank}}, n_samples=10 * (rank + 1)
            )
            per_rank[rank] = obs.to_dict()
        report = build_report(per_rank)
        assert report["profile"]["n_samples"] == 30
        assert report["profile"]["spans"]["day"]["mod:f"] == pytest.approx(3.0)
        text = render_text(report)
        assert "sampling profile" in text

    def test_unprofiled_report_has_no_profile_key(self):
        obs = Obs(enabled=True)
        obs.metrics.counter("events").inc()
        report = build_report({0: obs.to_dict()})
        assert "profile" not in report
        assert "sampling profile" not in render_text(report)
