"""Tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; tier-1
does not collect this directory (its ``testpaths`` is ``tests``).
"""

import ast
import json
import re
from pathlib import Path

import pytest

from benchmarks.e2e import stats
from benchmarks.e2e.compare import compare_reports, verdict
from benchmarks.e2e.harness import (
    Pass, fastest_round, repeat_passes, run_workload,
)
from benchmarks.e2e.inputs import SMOKE, TempStores, ingest, make_market
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, WORKLOADS
from benchmarks.e2e.trace import Tracer, self_times

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TestVocabulary:
    def test_names_and_units_are_well_formed(self):
        rows = END_TO_END + PER_LAYER
        names = [row[0] for row in rows] + list(WORKLOADS)
        assert len(set(names)) == len(names)
        for name in names:
            assert NAME.match(name), name
        for row in rows:
            assert UNIT.match(row[1]), row
            assert row[2] in ("lower", "higher"), row

    def test_benchmark_json_matches_the_tables(self):
        assert set(BENCHMARK) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer",
        }
        assert BENCHMARK["workloads"] == [
            {"name": n, "why": w} for n, w in WORKLOADS.items()
        ]
        assert BENCHMARK["end_to_end"] == [
            {"name": r[0], "unit": r[1], "better": r[2], "bound": r[3]}
            for r in END_TO_END
        ]
        assert BENCHMARK["per_layer"] == [
            {"name": r[0], "unit": r[1], "better": r[2]} for r in PER_LAYER
        ]

    def test_benchmark_json_is_inside_the_contract(self):
        assert 2 <= len(BENCHMARK["workloads"]) <= 8
        assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
        assert 1 <= len(BENCHMARK["per_layer"]) <= 128
        assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
        assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        assert setup == [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        ]
        assert BENCHMARK["paths"] == ["benchmarks/e2e"]
        assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]

    @pytest.mark.parametrize("trace", [False, True])
    def test_a_run_prints_exactly_the_listed_metrics(self, trace):
        result = run_workload("study_pearson", 5, 0.1, trace, SMOKE, setups=1)
        listed = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in listed]
        for m in listed:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


class TestPercentiles:
    def test_refuses_a_tail_with_fewer_than_ten_samples_beyond(self):
        with pytest.raises(stats.UnsupportedPercentile):
            stats.percentile(range(999), 99)  # 9 beyond
        assert stats.percentile(range(1, 1001), 99) == 990  # 10 beyond
        with pytest.raises(stats.UnsupportedPercentile):
            stats.percentile(range(100), 95)
        assert stats.percentile(range(1, 201), 95) == 190

    def test_median_is_always_allowed(self):
        assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
        with pytest.raises(stats.UnsupportedPercentile):
            stats.percentile([], 50)

    def test_supported_tail_steps_down_the_ladder(self):
        assert stats.supported_tail(range(1, 1001), 99) == (99, 990)
        assert stats.supported_tail(range(1, 1001), 95) == (95, 950)
        assert stats.supported_tail(range(1, 301), 99) == (95, 285)
        assert stats.supported_tail([4.0, 2.0, 6.0, 8.0], 99) == (50, 5.0)

    def test_spread_is_quartile_distance_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0]
        assert stats.spread(values) == pytest.approx((13.5 - 10.5) / 12.0)


class TestRounds:
    def test_fastest_round_takes_each_inputs_fastest_scaled_visit(self):
        passes = [
            Pass(2.0, 1.0), Pass(3.0, 1.5),  # round 1: inputs 0 and 1
            Pass(1.8, 1.2), Pass(4.0, 1.0),  # round 2
        ]
        # input 0: min(2.0, 1.8 / 1.2) = 1.5; input 1: min(3.0 / 1.5, 4.0) = 2.0
        assert fastest_round(passes, 2) == pytest.approx(3.5)
        assert fastest_round(passes) == pytest.approx(1.5)

    def test_repeat_passes_ends_on_a_whole_round(self):
        passes = repeat_passes(lambda: 0.001, 0.0, inputs=3)
        assert len(passes) == 3
        assert all(p.wall_s == 0.001 and p.slowness > 0 for p in passes)


def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "run_id": "r"}


class TestTracer:
    def test_self_time_nested_and_sibling(self):
        spans = [
            _span(0, "root", 0.0, 10.0),
            _span(1, "a", 1.0, 4.0, parent=0),
            _span(2, "b", 5.0, 9.0, parent=0),
            _span(3, "a.inner", 2.0, 3.0, parent=1),
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
        assert own[1] == pytest.approx(3.0 - 1.0)
        assert own[2] == pytest.approx(4.0)
        assert own[3] == pytest.approx(1.0)

    def test_overlapping_children_are_not_counted_twice(self):
        spans = [
            _span(0, "root", 0.0, 10.0),
            _span(1, "a", 1.0, 6.0, parent=0),
            _span(2, "b", 4.0, 8.0, parent=0),
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 7.0)

    def test_spans_nest_per_thread_and_disabled_records_nothing(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", "run1"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert inner["parent"] == outer["id"] and inner["run_id"] == "run1"
        assert tracer.total("inner", "run1") <= tracer.total("outer")
        tracer.dump(tmp_path / "t.json")
        rows = json.loads((tmp_path / "t.json").read_text())["spans"]
        assert rows[0]["self_s"] == pytest.approx(
            (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
        )
        off = Tracer(enabled=False)
        with off.span("x"):
            pass
        assert off.spans == []


class TestInputs:
    def _digest(self, seed):
        stores = TempStores()
        try:
            market = make_market(seed, SMOKE.wide_symbols, SMOKE)
            return ingest(market, 1, stores.fresh(), Tracer(False)).digest
        finally:
            stores.close()

    def test_same_seed_same_digest_other_seed_other_digest(self):
        assert self._digest(7) == self._digest(7)
        assert self._digest(7) != self._digest(8)


#: Keyword arguments that select an implementation.  The benchmark calls
#: the public entry points with their defaults, so that whatever
#: production defaults to is what gets measured.
FORBIDDEN = {"corr_backend", "backend", "engine", "share_correlation"}


def test_default_path_rule():
    offenders = []
    for path in sorted(HERE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                offenders += [
                    f"{path.name}:{node.lineno} {kw.arg}="
                    for kw in node.keywords if kw.arg in FORBIDDEN
                ]
    assert offenders == []


def _report(values, started):
    """A one-workload report whose runs took 10 s each from ``started``."""
    runs = [
        {
            "metrics": {row[0]: {"value": v} for row in END_TO_END},
            "attempted": 10, "failed": 0,
            "started": started + 20 * k, "ended": started + 20 * k + 10,
        }
        for k, v in enumerate(values)
    ]
    return {"workloads": {"w": {"runs": runs}}}


class TestCompare:
    def test_within_bound_is_ok(self):
        a, b = [10, 10.1, 9.9], [10.3, 10.4, 10.2]
        assert verdict(a, b, "lower", 0.1, True) == "ok"
        assert verdict(a, b, "lower", 0.1, False) == "ok"

    def test_worse_than_bound_is_regressed(self):
        a = [10, 10.1, 9.9]
        assert verdict(a, [12, 12.1, 11.9], "lower", 0.1, True) == "regressed"
        assert verdict(a, [8, 8.1, 7.9], "higher", 0.1, True) == "regressed"
        assert verdict(a, [8, 8.1, 7.9], "lower", 0.1, True) == "ok"

    def test_a_slow_stretch_shared_by_the_pairs_cancels(self):
        a = [10.0, 10.2, 15.1]  # the third round ran 50 % slower, on both
        b = [10.1, 10.1, 14.9]
        assert verdict(a, b, "lower", 0.1, True) == "ok"
        assert verdict(a, b, "lower", 0.1, False) == "unresolved"

    def test_pairs_that_disagree_are_unresolved_unless_one_sided(self):
        a = [10.0, 10.0, 10.0, 10.0]
        assert verdict(a, [8.0, 13.0, 9.0, 12.5], "lower", 0.1, True) == "unresolved"
        assert verdict(a, [5.0, 9.5, 6.0, 8.0], "lower", 0.1, True) == "ok"
        assert verdict(a, [11.5, 15.0, 12.0, 14.0], "lower", 0.1, True) == "regressed"

    def test_apart_wide_spread_is_unresolved_unless_every_run_is_better(self):
        noisy = [10.0, 14.0, 7.0, 12.0]
        steady = [10.5, 11.0, 10.8, 10.7]
        assert verdict(noisy, steady, "lower", 0.1, False) == "unresolved"
        assert verdict(noisy, [5.0, 5.5, 6.0, 5.2], "lower", 0.1, False) == "ok"

    def test_sets_measured_one_after_the_other_cannot_regress_on_time(self):
        a = _report([10, 10.1, 9.9], started=0)
        slow = [14, 14.1, 13.9]  # worse by 40 %, beyond every bound
        in_turn = _report(slow, started=10)
        later = _report(slow, started=1000)
        lower = {row[0] for row in END_TO_END if row[2] == "lower"}
        for b, word in ((in_turn, "regressed"), (later, "unresolved")):
            rows, regressed = compare_reports(a, b)
            timing = {r[4] for r in rows if r[1] in lower}
            assert timing == {word} and regressed == (word == "regressed")

    def test_more_failures_regress_however_the_sets_were_measured(self):
        a = _report([10, 10.1, 9.9], started=0)
        b = _report([10, 10.1, 9.9], started=1000)
        b["workloads"]["w"]["runs"][0]["failed"] = 1
        rows, regressed = compare_reports(a, b)
        assert regressed
        assert [r[4] for r in rows if r[1] == "failed_share"] == ["regressed"]
