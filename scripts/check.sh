#!/usr/bin/env bash
# Repository health check: compile, lint, test, CLI smokes, and the
# overhead gates (switched-off seams stay (near-)free on the hot paths,
# and a window's Maronna and Combined stay one fixed point).
#
# Usage: scripts/check.sh          (from the repository root)

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

# run_and_match PATTERN CMD...: run CMD, show its output, and fail unless
# it exits 0 *and* printed a line matching PATTERN (the vacuity check).
run_and_match() {
    local pattern=$1 out
    shift
    out=$("$@") || { echo "$out"; return 1; }
    echo "$out"
    grep -q -- "$pattern" <<<"$out" || {
        echo "vacuous: no output line matches '$pattern'" >&2
        return 1
    }
}

echo "== compileall =="
python -m compileall -q src

echo "== native kernels build (gcc -O2 -ffp-contract=off) =="
python -c "import repro.clean.filters as f, repro.corr.maronna as m; print(f._KERNEL._name); print(m._KERNEL._name)"

echo "== repro lint (graph spec + source rules, one pass, 10 s budget) =="
timeout 10 python -m repro.cli lint --strict --root src/repro

echo "== ruff/mypy (strict, scoped to src/repro/analysis) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src/repro/analysis
else
    echo "ruff not installed; skipping (config lives in pyproject.toml)"
fi
if command -v mypy >/dev/null 2>&1; then
    mypy src/repro/analysis
else
    echo "mypy not installed; skipping (config lives in pyproject.toml)"
fi

echo "== import path stays scipy-free =="
python -c "import sys, repro, repro.backtest, repro.marketminer.session, repro.serve; assert 'scipy' not in sys.modules"

echo "== docs: internal links + CLI examples parse =="
python scripts/checkdocs.py

echo "== serve smoke check (boot server, 200-request burst, clean exit) =="
timeout 10 python -m benchmarks.bench_serve --smoke

echo "== pytest =="
python -m pytest -x -q

echo "== end-to-end benchmark smoke (imports, oracles, staged replays) =="
timeout 60 python3 benchmarks/e2e/run.py --smoke

echo "== tick store ingest/verify/scan smoke check =="
STORE_DIR=$(mktemp -d)
trap 'rm -rf "$STORE_DIR"' EXIT
python -m repro.cli store ingest --root "$STORE_DIR" \
    --symbols 8 --days 3 --seconds 1800 --seed 7 --shards 3 --block-rows 1024
python -m repro.cli store ls --root "$STORE_DIR"
python -m repro.cli store verify --root "$STORE_DIR" --deep
python -m repro.cli store scan --root "$STORE_DIR" \
    --days 1 2 --select XOM,CVX --t-min 100 --t-max 1500 --cached

echo "== chaos recovery smoke check (crash-mid at 3 and 2 ranks, bitwise) =="
# The exit status is the bitwise verdict (recovered == fault-free); the
# matched line keeps the stage from passing with a plan that never fired.
# Two ranks is where placement moves most (everything but the feed on
# rank 1), so a trigger op counted on another map goes vacuous there.
for ranks in 3 2; do
    run_and_match '^  restart epoch ' timeout 30 \
        python -m repro.cli chaos --plan crash-mid --ranks "$ranks" \
        --symbols 4 --seconds 2400 --seed 33 --timeout 2
done

echo "== elastic resize smoke check (grow 2->4, shrink 4->2, bitwise) =="
# Exit status: rescaled == fixed-size, results and folded domain counters.
run_and_match '^elastic session: pool 2->4->2,' timeout 10 \
    python -m repro.cli elastic --resize 1:4 --resize 2:2 --compare-fixed 2 \
    --symbols 4 --seconds 1462 --seed 33 --timeout 2

echo "== work-stealing makespan smoke check =="
python -m benchmarks.bench_elastic --smoke

echo "== overhead gates (obs, live sampler, comm tracer, fault seam, shared fixed point, streamed bars) =="
python -m benchmarks.overhead_gates

echo "all checks passed"
