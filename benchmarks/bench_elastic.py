"""Elastic-runtime benchmark: work-stealing vs stragglers, resize vs fixed.

Two headline measurements, both gated here (not just reported):

1. **Work-stealing beats the straggler.**  A seeded skewed-cost scenario
   — every ``n_slots``-th job is a long straggler, so the static
   round-robin partition piles all of them onto slot 0 — is placed twice
   through :meth:`~repro.sge.scheduler.SgeScheduler.simulate_partitioned`,
   with and without stealing.  Gate: the stolen schedule's makespan is at
   most ``STEAL_GATE`` (0.75) of the no-steal one, and re-running the
   same jobs *executed* (:meth:`~repro.sge.scheduler.SgeScheduler.run_partitioned`)
   under both disciplines produces bitwise-equal results — placement may
   move work, never change it.

2. **Resize is free of result drift.**  A toy supervised Figure-1
   session resized 2 → 4 → 3 at epoch boundaries is compared bitwise
   against the fixed-size run (the elastic headline invariant), and the
   wall cost of the resizes is reported next to the fixed-size wall.

Full mode writes ``benchmarks/out/elastic.{txt,json}`` plus the
repo-level artefact ``BENCH_elastic.json``.  ``--smoke`` is the
sub-10-second steal-gate burst used by ``scripts/check.sh`` (the session
resize smoke has its own check.sh stage via ``repro elastic``).
"""

import json
import random
import time
from pathlib import Path

import numpy as np

from repro.sge.scheduler import Job, SgeScheduler

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Makespan gate: stolen schedule must be at most this fraction of the
#: no-steal schedule on the skewed scenario.
STEAL_GATE = 0.75

#: Straggler scenario shape (full mode).
N_SLOTS = 8
N_JOBS = 128
STRAGGLER_SECONDS = 9.0
SHORT_SECONDS = 0.45
JITTER = 0.1
SEED = 2008


def straggler_durations(
    n_jobs: int, n_slots: int, seed: int = SEED
) -> dict[str, float]:
    """Seeded skewed costs: every ``n_slots``-th job is a straggler.

    Round-robin pre-assignment sends job ``i`` to slot ``i % n_slots``,
    so this shape lands *every* straggler on slot 0 — the worst case a
    static partition produces and exactly what the paper's fixed SGE
    split suffers when one parameter set is pathologically slow.
    """
    rng = random.Random(seed)
    durations = {}
    for i in range(n_jobs):
        base = STRAGGLER_SECONDS if i % n_slots == 0 else SHORT_SECONDS
        durations[f"cell{i:04d}"] = base * (1.0 + JITTER * rng.random())
    return durations


def _corr_job(seed: int):
    """A real, deterministic unit of work: rolling correlation of a pair."""
    def job():
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2048)
        y = 0.6 * x + 0.8 * rng.standard_normal(2048)
        m = 64
        out = np.empty(len(x) - m)
        for s in range(len(out)):
            out[s] = np.corrcoef(x[s:s + m], y[s:s + m])[0, 1]
        return float(out.sum())
    return job


def run_steal(n_jobs: int, n_slots: int) -> dict:
    """Measure the steal gate on the seeded straggler scenario."""
    durations = straggler_durations(n_jobs, n_slots)
    sched = SgeScheduler(n_slots=n_slots)
    no_steal = sched.simulate_partitioned(durations, steal=False)
    steal = sched.simulate_partitioned(durations, steal=True)
    ratio = steal.makespan / no_steal.makespan

    # Executed twice — stolen placement must not perturb results.
    exec_sched = SgeScheduler(n_slots=n_slots)
    n_exec = min(n_jobs, 32)
    exec_sched.submit_many(
        Job(f"corr{i:03d}", _corr_job(i)) for i in range(n_exec)
    )
    plain = exec_sched.run_partitioned(steal=False)
    exec_sched.submit_many(
        Job(f"corr{i:03d}", _corr_job(i)) for i in range(n_exec)
    )
    stolen = exec_sched.run_partitioned(steal=True)
    results_equal = [r.result for r in plain.results] == [
        r.result for r in stolen.results
    ]

    return {
        "n_jobs": n_jobs,
        "n_slots": n_slots,
        "no_steal_makespan": no_steal.makespan,
        "steal_makespan": steal.makespan,
        "ratio": ratio,
        "gate": STEAL_GATE,
        "n_stolen": steal.n_stolen,
        "stolen_seconds": steal.stolen_seconds,
        "executed_jobs": n_exec,
        "executed_results_equal": results_equal,
    }


def run_resize() -> dict:
    """Toy supervised session: resized 2->4->3 vs fixed-size 3, bitwise."""
    from repro.elastic import ResizePlan, ResizeRequest
    from repro.faults import run_supervised_session, session_results_equal
    from repro.marketminer.session import build_synthetic_figure1
    from repro.strategy.params import StrategyParams

    params = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=4, d=0.002)

    def build():
        return build_synthetic_figure1(
            4, 23_400 // 16, 33, params, pairs=[(0, 1), (2, 3)]
        )

    options = {"default_timeout": 10.0}
    t0 = time.perf_counter()
    fixed = run_supervised_session(
        build, size=3, checkpoint_every=20, backend_options=options
    )
    fixed_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    elastic = run_supervised_session(
        build, size=2, checkpoint_every=20,
        resize=ResizePlan((ResizeRequest(1, 4), ResizeRequest(2, 3))),
        backend_options=options,
    )
    elastic_wall = time.perf_counter() - t0
    return {
        "pool_sizes": list(elastic.pool_sizes),
        "resizes": [list(r) for r in elastic.resizes],
        "bitwise_equal": session_results_equal(
            fixed.results, elastic.results
        ),
        "fixed_wall_s": fixed_wall,
        "elastic_wall_s": elastic_wall,
    }


def _gate(steal: dict, resize: dict | None) -> None:
    assert steal["ratio"] <= STEAL_GATE, (
        f"steal makespan ratio {steal['ratio']:.3f} exceeds the "
        f"{STEAL_GATE} gate (no-steal {steal['no_steal_makespan']:.1f}s, "
        f"steal {steal['steal_makespan']:.1f}s)"
    )
    assert steal["executed_results_equal"], (
        "work-stealing changed executed job results; placement must never "
        "touch results"
    )
    if resize is not None:
        assert resize["bitwise_equal"], (
            f"resized session diverged from the fixed-size run "
            f"(pool sizes {resize['pool_sizes']})"
        )


def run_full() -> None:
    """Headline run: straggler gate at full shape + the resize invariant."""
    steal = run_steal(N_JOBS, N_SLOTS)
    resize = run_resize()
    _gate(steal, resize)
    data = {"steal": steal, "resize": resize}

    lines = [
        f"elastic: straggler scenario {steal['n_jobs']} jobs / "
        f"{steal['n_slots']} slots",
        f"  no-steal makespan {steal['no_steal_makespan']:8.1f}s",
        f"  steal makespan    {steal['steal_makespan']:8.1f}s   "
        f"ratio {steal['ratio']:.3f}  (gate <= {STEAL_GATE})",
        f"  {steal['n_stolen']} jobs stolen "
        f"({steal['stolen_seconds']:.1f}s of load rebalanced); "
        f"executed results bitwise-equal: "
        f"{steal['executed_results_equal']}",
        f"elastic: session resized 2->4->3 vs fixed-size 3: "
        f"bitwise_equal={resize['bitwise_equal']} "
        f"(pool sizes {resize['pool_sizes']})",
        f"  fixed wall {resize['fixed_wall_s']:.2f}s, "
        f"elastic wall {resize['elastic_wall_s']:.2f}s "
        f"({len(resize['resizes'])} rebuild boundaries resized)",
    ]
    text = "\n".join(lines)
    from benchmarks.conftest import emit

    emit("elastic", text, data)
    (REPO_ROOT / "BENCH_elastic.json").write_text(
        json.dumps({"bench": "elastic", "data": data}, indent=2,
                   sort_keys=True) + "\n"
    )


def run_smoke() -> None:
    """check.sh stage: the steal gate on a reduced scenario, sub-second."""
    steal = run_steal(n_jobs=64, n_slots=8)
    _gate(steal, None)
    print(
        f"ok: elastic smoke — steal makespan ratio {steal['ratio']:.3f} "
        f"(gate <= {STEAL_GATE}), {steal['n_stolen']} stolen, executed "
        f"results bitwise-equal"
    )


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="steal-gate burst (used by scripts/check.sh)")
    if ap.parse_args().smoke:
        run_smoke()
    else:
        run_full()
