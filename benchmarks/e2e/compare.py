"""``--compare A.json B.json``: apply each metric's bound, row by row.

A is the parent (or the first set of runs), B the change (or the
second).  One row per (end-to-end metric, workload).

This machine has stretches of minutes in which everything runs 20-50 %
slower, so what two sets' medians differ by says little unless they
shared the same minutes.  Report mode with two ``--out`` files measures
the sets *in turn*: run k of A and run k of B back to back.  Then the
slow stretches cancel inside a pair and the comparison is made on the
pairs — how much worse B's run reads than A's run of the same round:

* ``regressed`` — the median pair has B worse than A by more than the
  bound;
* ``unresolved`` — the pairs disagree by more than the bound
  (inter-quartile distance of the per-pair differences), so the
  comparison cannot tell, unless B is better in every pair or worse in
  every pair;
* ``ok`` — otherwise.

Two sets measured one after the other (two separate invocations) are
compared by their medians, and a timing row can only read ``ok`` or
``unresolved``: unresolved when either set's own spread (inter-quartile
distance over median) is wider than the bound, unless every run of B
beats every run of A, and also when B's median is worse by more than
the bound, because that is what a slow stretch looks like too.

``failed_share`` has no bound and is a count: any increase is
``regressed``, however the sets were measured.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.e2e import stats
from benchmarks.e2e.metrics import END_TO_END


def verdict(
    a: list[float], b: list[float], better: str, bound: float,
    in_turn: bool,
) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric's two samples;
    ``in_turn`` says ``a[k]`` and ``b[k]`` were measured back to back."""
    sign = 1.0 if better == "lower" else -1.0  # so that larger reads worse
    if in_turn:
        worse = [sign * (y - x) / abs(x) for x, y in zip(a, b)]
        by = stats.median(worse)
        one_sided = min(worse) > 0 or max(worse) < 0
        if stats.iqr(worse) > bound and not one_sided:
            return "unresolved"
        return "regressed" if by > bound else "ok"
    by = sign * (stats.median(b) - stats.median(a)) / abs(stats.median(a))
    all_better = max(sign * y for y in b) < min(sign * x for x in a)
    wide = any(stats.spread(v) > bound for v in (a, b) if len(v) >= 2)
    if by > bound or (wide and not all_better):
        return "unresolved"
    return "ok"


def measured_in_turn(runs_a: list[dict], runs_b: list[dict]) -> bool:
    """Whether run k of A and run k of B both ended before run k+1 of
    either began (report mode with two ``--out`` files does that)."""
    rounds = list(zip(runs_a, runs_b))
    return len(runs_a) == len(runs_b) >= 2 and all(
        max(x["ended"], y["ended"]) <= min(nx["started"], ny["started"])
        for (x, y), (nx, ny) in zip(rounds, rounds[1:])
    )


def _failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare_reports(a: dict, b: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, median A, median B, verdict)`` and whether
    any regressed."""
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        runs_a = a["workloads"][name]["runs"]
        runs_b = b["workloads"][name]["runs"]
        in_turn = measured_in_turn(runs_a, runs_b)
        for metric, _, better, bound, _ in END_TO_END:
            va = [r["metrics"][metric]["value"] for r in runs_a]
            vb = [r["metrics"][metric]["value"] for r in runs_b]
            rows.append((
                name, metric, stats.median(va), stats.median(vb),
                verdict(va, vb, better, bound, in_turn),
            ))
        fa, fb = _failed_share(runs_a), _failed_share(runs_b)
        rows.append(
            (name, "failed_share", fa, fb, "regressed" if fb > fa else "ok")
        )
    return rows, any(row[4] == "regressed" for row in rows)


def compare_files(path_a: str, path_b: str) -> int:
    """Print the comparison; exit status 1 on any ``regressed`` row."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows, regressed = compare_reports(a, b)
    print(f"{'workload':<14} {'metric':<18} {'A':>12} {'B':>12}  verdict")
    for name, metric, med_a, med_b, word in rows:
        print(f"{name:<14} {metric:<18} {med_a:>12.5g} {med_b:>12.5g}  {word}")
    apart = [
        name for name in a["workloads"]
        if name in b["workloads"] and not measured_in_turn(
            a["workloads"][name]["runs"], b["workloads"][name]["runs"]
        )
    ]
    if apart:
        print(f"note: {', '.join(apart)} not measured in turn, so a worse "
              f"timing reads unresolved, not regressed (report mode with "
              f"two --out files measures two sets in turn)")
    return 1 if regressed else 0
