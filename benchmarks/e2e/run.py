"""The benchmark's one command.

Contract mode (what BENCHMARK.json's driver calls), one workload, one
process, last stdout line is the JSON result::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Report mode (no ``--trace``) runs every workload (or the ones named) in
fresh subprocesses — ``REPEATS`` untraced runs and one traced run each
— prints every metric by name with its unit and writes the whole
document, environment included, to ``--out``.  Given several ``--out``
files it measures that many sets run by run in turn, which is how two
sets of one commit are made for ``--compare``::

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME ...] [--out FILE ...]
    python3 benchmarks/e2e/run.py --smoke                 # toy sizes, < 20 s
    python3 benchmarks/e2e/run.py --compare A.json B.json # bounds, row by row

Exit status is non-zero when any oracle check fails (or, for
``--compare``, when any row regressed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: BLAS/OpenMP pools are pinned to one thread so a numpy call does not
#: fan out over the cores the ranks and clients are sharing.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

#: Report mode: untraced runs per workload and set.  With the traced run
#: that is 4 runs x 5 workloads x ~20 s, about 7 minutes a set.
REPEATS = 3


def _bootstrap() -> None:
    """Pin thread pools and make ``benchmarks.e2e`` and ``repro`` importable.

    Must run before numpy is imported.  When this file is run as a
    script ``sys.path[0]`` is its own directory, whose ``trace.py`` would
    shadow the stdlib module — it is replaced by the checkout root.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
        sys.path[0] = str(ROOT)
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(1, entry)


def _run_seconds() -> int:
    return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def _print_result(result: dict) -> None:
    """Human-readable rows, then the contract's JSON as the last line."""
    for line in result["lines"]:
        print(line)
    print(json.dumps(
        {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    ), flush=True)


def contract_run(args) -> int:
    """One workload in this process (BENCHMARK.json's contract)."""
    from benchmarks.e2e.harness import run_workload
    from benchmarks.e2e.inputs import FULL

    result = run_workload(
        args.workload[0], args.seed, args.seconds, bool(args.trace), FULL
    )
    _print_result(result)
    return 0 if result["correct"] else 1


def smoke_run(args) -> int:
    """All five workloads at toy size, in-process, every check on."""
    from benchmarks.e2e.harness import run_workload
    from benchmarks.e2e.inputs import SMOKE
    from benchmarks.e2e.metrics import WORKLOADS

    t0 = time.perf_counter()
    ok = True
    for name in args.workload or WORKLOADS:
        seconds = 3.0 if name == "serve_mix" else 0.5
        for trace in (False, True):
            result = run_workload(
                name, args.seed, seconds, trace, SMOKE, setups=1
            )
            ok = ok and result["correct"]
            print(
                f"{'ok  ' if result['correct'] else 'FAIL'} {name:<14} "
                f"trace={int(trace)} failed {result['failed']}/"
                f"{result['attempted']}"
            )
            if not result["correct"]:
                print("\n".join(result["lines"]))
    print(f"smoke: {'ok' if ok else 'FAILED'} in "
          f"{time.perf_counter() - t0:.1f} s")
    return 0 if ok else 1


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One contract run in a fresh subprocess; returns its JSON result
    plus when it ran (``--compare`` needs to know whether two sets were
    measured side by side)."""
    started = time.time()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{name} (trace={trace}) printed no result; exit "
            f"{proc.returncode}\n{proc.stdout}\n{proc.stderr}"
        )
    print("\n".join(lines[:-1]))
    return dict(json.loads(lines[-1]), started=started, ended=time.time())


def report_run(args) -> int:
    """Every workload: ``REPEATS`` untraced runs + one traced run, per set.

    Rounds go over all workloads before a workload is repeated, and the
    sets take turns inside a round (alternating which goes first), so a
    slow stretch of the machine lands on every set alike and shows as
    spread inside a set instead of as a difference between sets.
    """
    import numpy

    from benchmarks.e2e import stats
    from benchmarks.e2e.metrics import END_TO_END, WORKLOADS

    seconds = args.seconds if args.seconds is not None else _run_seconds()
    names = args.workload or list(WORKLOADS)
    outs = args.out or [None]
    reports = [
        {
            "schema": "repro.bench.e2e/v1",
            "env": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "git_sha": _git_sha(),
                "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
            },
            "seed": args.seed,
            "seconds": seconds,
            "repeats": REPEATS,
            "workloads": {name: {"runs": [], "traced": None} for name in names},
        }
        for _ in outs
    ]
    ok = True
    for rnd in range(REPEATS + 1):  # the last round is the traced one
        traced = rnd == REPEATS
        for name in names:
            for turn in range(len(reports)):
                k = (turn + rnd) % len(reports)
                print(f"== {name}, set {k + 1}/{len(reports)}, "
                      + ("traced" if traced else f"run {rnd + 1}/{REPEATS}"))
                result = _child(name, args.seed, seconds, int(traced))
                ok = ok and result["correct"]
                entry = reports[k]["workloads"][name]
                if traced:
                    entry["traced"] = result
                else:
                    entry["runs"].append(result)
    for k, (report, out) in enumerate(zip(reports, outs)):
        print(f"== set {k + 1}: medians of {REPEATS} runs")
        for name in names:
            runs = report["workloads"][name]["runs"]
            for metric, unit, better, bound, _ in END_TO_END:
                values = [r["metrics"][metric]["value"] for r in runs]
                print(
                    f"  {name:<14} {metric:<18} {stats.median(values):>12.6g} "
                    f"{unit:<4} runs {[float(f'{v:.5g}') for v in values]}"
                    f" ({better} is better, bound {bound:.0%})"
                )
        if out:
            Path(out).write_text(json.dumps(report, indent=1) + "\n")
            print(f"wrote {out}")
    print("all outputs correct" if ok else "SOME OUTPUTS WERE WRONG")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable in report mode)")
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: 0 end-to-end, 1 per-layer")
    parser.add_argument("--out", action="append", metavar="FILE",
                        help="report mode: write the JSON here; repeat it to "
                        "measure that many sets in turn")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, all checks, under 20 s")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply each metric's bound to two reports")
    args = parser.parse_args(argv)
    _bootstrap()
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}; run from a "
              f"checkout that has src/repro", file=sys.stderr)
        return 2
    from benchmarks.e2e.metrics import WORKLOADS

    for name in args.workload or ():
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; have {list(WORKLOADS)}")
    if args.compare:
        from benchmarks.e2e.compare import compare_files

        return compare_files(*args.compare)
    if args.smoke:
        return smoke_run(args)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        if args.seconds is None:
            args.seconds = _run_seconds()
        return contract_run(args)
    return report_run(args)


if __name__ == "__main__":
    sys.exit(main())
