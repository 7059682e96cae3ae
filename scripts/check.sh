#!/usr/bin/env bash
# Repository health check: compile, test, and verify that disabled
# observability stays (near-)free on the hot paths.
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

echo "== repro lint (graph spec + repo AST rules) =="
python -m repro.cli lint --strict --root src/repro

echo "== repro analyze (deepcheck invariant analyzers + baseline) =="
python - <<'EOF'
"""Whole-repo deepcheck must pass --strict under the committed baseline
and finish inside a 10 s wall-clock budget (it runs on every check)."""
import subprocess
import sys
import time

t0 = time.perf_counter()
proc = subprocess.run(
    [sys.executable, "-m", "repro.cli", "analyze", "--strict",
     "--root", "src/repro", "--baseline", "analysis_baseline.json",
     "--symbols", "4", "--seconds", "600"],
)
elapsed = time.perf_counter() - t0
assert proc.returncode == 0, (
    f"repro analyze --strict failed (exit {proc.returncode}): fix the "
    f"finding or baseline it with a justification"
)
print(f"deepcheck clean in {elapsed:.2f}s")
assert elapsed < 10.0, (
    f"deepcheck took {elapsed:.2f}s >= 10s budget: the analyzers must "
    f"stay cheap enough to run on every check"
)
EOF

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

echo "== docs: internal links + CLI examples parse =="
python scripts/checkdocs.py

echo "== serve smoke check (boot server, 200-request burst, clean exit) =="
python - <<'EOF'
"""The serving layer must boot, absorb a 200-request mixed burst with
zero read-path errors, and shut down cleanly — in well under 10 s."""
import time

from benchmarks.bench_serve import run_smoke

t0 = time.perf_counter()
run_smoke()
elapsed = time.perf_counter() - t0
assert elapsed < 10.0, (
    f"serve smoke took {elapsed:.1f}s >= 10s budget: the stage must stay "
    f"cheap enough to run on every check"
)
EOF

echo "== pytest =="
python -m pytest -x -q

echo "== tick store ingest/verify/scan smoke check =="
STORE_DIR=$(mktemp -d)
trap 'rm -rf "$STORE_DIR"' EXIT
python -m repro.cli store ingest --root "$STORE_DIR" \
    --symbols 8 --days 3 --seconds 1800 --seed 7 --shards 3 --block-rows 1024
python -m repro.cli store ls --root "$STORE_DIR"
python -m repro.cli store verify --root "$STORE_DIR" --deep
python -m repro.cli store scan --root "$STORE_DIR" \
    --days 1 2 --select XOM,CVX --t-min 100 --t-max 1500 --cached

echo "== observability overhead smoke check =="
python - <<'EOF'
"""Assert the disabled-obs pipeline is within 10% of pre-obs cost.

Runs the same Figure-1 session with observability off and on, taking the
min of N runs each (min is robust to scheduling noise).  The disabled
path must not pay for the instrumentation: we require
min(disabled) < 1.10 * min(enabled) -- i.e. disabling can't be slower
than enabling by more than the tolerance, which bounds the no-op
overhead since the enabled run does strictly more work.
"""
import time

from repro.marketminer.session import build_synthetic_figure1, run_figure1_session
from repro.strategy.params import StrategyParams

SECONDS = 3000
N_RUNS = 3


def workflow():
    params = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=5, d=0.001)
    return build_synthetic_figure1(4, SECONDS, 7, params)


def best_of(obs_enabled):
    best = float("inf")
    for _ in range(N_RUNS):
        t0 = time.perf_counter()
        run_figure1_session(workflow(), size=2, obs_enabled=obs_enabled)
        best = min(best, time.perf_counter() - t0)
    return best


disabled = best_of(False)
enabled = best_of(True)
ratio = disabled / enabled
print(f"disabled {disabled:.3f}s  enabled {enabled:.3f}s  "
      f"disabled/enabled {ratio:.2f}")
assert ratio < 1.10, (
    f"disabled observability should be at least as fast as enabled "
    f"(ratio {ratio:.2f} >= 1.10): the no-op fast path regressed"
)
print("ok: disabled observability pays no measurable overhead")
EOF

echo "== live-sampler overhead smoke check =="
python - <<'EOF'
"""Assert the live time-series sampler costs <5% on a Figure-1 session.

Runs the same obs-enabled session bare and with a TelemetryHub sampling
every rank's registry at the default interval (the `repro top` data
path), min of N runs each.  The sampler reads registries from its own
thread, so the session should barely notice it: we require
min(sampled) < 1.05 * min(bare).
"""
import time

from repro.marketminer.session import build_synthetic_figure1, run_figure1_session
from repro.obs.live import TelemetryHub
from repro.obs.live.sampler import DEFAULT_INTERVAL
from repro.strategy.params import StrategyParams

SECONDS = 3000
N_RUNS = 3


def workflow():
    params = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=5, d=0.001)
    return build_synthetic_figure1(4, SECONDS, 7, params)


def best_of(sampled):
    best = float("inf")
    for _ in range(N_RUNS):
        hub = TelemetryHub()
        if sampled:
            hub.start(DEFAULT_INTERVAL)
        t0 = time.perf_counter()
        try:
            run_figure1_session(
                workflow(), size=2, obs_enabled=True,
                obs_hook=hub.register if sampled else None,
            )
            best = min(best, time.perf_counter() - t0)
        finally:
            hub.stop()
        if sampled:
            assert hub.n_ticks > 0, "sampler never ticked: check is vacuous"
    return best


bare = best_of(False)
sampled = best_of(True)
ratio = sampled / bare
print(f"bare {bare:.3f}s  sampled {sampled:.3f}s  "
      f"sampled/bare {ratio:.2f}")
assert ratio < 1.05, (
    f"live sampling must cost <5% on the session "
    f"(ratio {ratio:.2f} >= 1.05)"
)
print("ok: live sampler stays under the 5% overhead budget")
EOF

echo "== comm-tracer overhead smoke check =="
python - <<'EOF'
"""Assert the detached comm tracer stays (near-)free on the p2p hot path.

Same min-of-N discipline as the obs check: an untraced ping-pong loop
must run within 10% of a traced one.  The untraced path pays exactly one
``tracer is not None`` test per send/recv, so this bounds the cost of
carrying the tracing seam in the mailbox communicator.
"""
import time

from repro.analysis.commtrace import run_traced
from repro.mpi.launcher import run_spmd

ROUNDS = 4000
N_RUNS = 3


def pingpong(comm):
    peer = 1 - comm.rank
    for i in range(ROUNDS):
        if comm.rank == 0:
            comm.send(i, peer, tag=1)
            comm.recv(source=peer, tag=2)
        else:
            comm.recv(source=peer, tag=1)
            comm.send(i, peer, tag=2)
    return None


def best_of(traced):
    best = float("inf")
    for _ in range(N_RUNS):
        t0 = time.perf_counter()
        if traced:
            run_traced(pingpong, 2, default_timeout=30.0)
        else:
            run_spmd(pingpong, size=2, default_timeout=30.0)
        best = min(best, time.perf_counter() - t0)
    return best


untraced = best_of(False)
traced = best_of(True)
ratio = untraced / traced
print(f"untraced {untraced:.3f}s  traced {traced:.3f}s  "
      f"untraced/traced {ratio:.2f}")
assert ratio < 1.10, (
    f"untraced comm should be at least as fast as traced "
    f"(ratio {ratio:.2f} >= 1.10): the no-op fast path regressed"
)
print("ok: detached comm tracer pays no measurable overhead")
EOF

echo "== chaos recovery smoke check (crash-mid, bitwise) =="
# The exit status is the bitwise verdict (recovered == fault-free); the
# matched line keeps the stage from passing with a plan that never fired.
run_and_match '^  restart epoch ' timeout 30 \
    python -m repro.cli chaos --plan crash-mid \
    --symbols 4 --seconds 2400 --seed 33 --timeout 2

echo "== elastic resize smoke check (grow 2->4, shrink 4->2, bitwise) =="
# Exit status: rescaled == fixed-size, results and folded domain counters.
run_and_match '^elastic session: pool 2->4->2,' timeout 10 \
    python -m repro.cli elastic --resize 1:4 --resize 2:2 --compare-fixed 2 \
    --symbols 4 --seconds 1462 --seed 33 --timeout 2

echo "== work-stealing makespan smoke check =="
python -m benchmarks.bench_elastic --smoke

echo "== detached-faults overhead smoke check =="
python - <<'EOF'
"""Assert the detached fault-injection seam stays (near-)free.

Same min-of-N discipline as the obs and tracer checks: a plain ping-pong
loop must run within 10% of one with a fault injector attached (empty
plan, so the injector stamps/op-counts every message but injects
nothing).  The detached path pays exactly one ``faults is not None``
test per send/recv.
"""
import time

from repro.faults import FaultInjector, FaultPlan
from repro.mpi.launcher import run_spmd

ROUNDS = 4000
N_RUNS = 3


def pingpong(comm):
    peer = 1 - comm.rank
    for i in range(ROUNDS):
        if comm.rank == 0:
            comm.send(i, peer, tag=1)
            comm.recv(source=peer, tag=2)
        else:
            comm.recv(source=peer, tag=1)
            comm.send(i, peer, tag=2)
    return None


def injected(comm):
    comm.attach_faults(FaultInjector(FaultPlan(name="empty"), comm.rank))
    try:
        pingpong(comm)
    finally:
        comm.attach_faults(None)


def best_of(fn):
    best = float("inf")
    for _ in range(N_RUNS):
        t0 = time.perf_counter()
        run_spmd(fn, size=2, default_timeout=30.0)
        best = min(best, time.perf_counter() - t0)
    return best


detached = best_of(pingpong)
attached = best_of(injected)
ratio = detached / attached
print(f"detached {detached:.3f}s  attached {attached:.3f}s  "
      f"detached/attached {ratio:.2f}")
assert ratio < 1.10, (
    f"detached faults should be at least as fast as attached "
    f"(ratio {ratio:.2f} >= 1.10): the no-op fast path regressed"
)
print("ok: detached fault injection pays no measurable overhead")
EOF

echo "all checks passed"
