"""Run one workload the way BENCHMARK.json's contract asks.

``run_workload`` sets the workload up (three times untraced, reporting
the median), measures for ``--seconds``, checks the outputs against the
oracle and returns the result document whose JSON is the last line the
command prints.  With tracing on it sets up once and asks the workload
for its per-layer numbers instead.

**Host-speed scaling.**  The shared host this runs on changes speed by
up to 2x for minutes at a time (README, "How steady it is"), so a wall
time read here is the program's cost times how slow the host happened
to be.  Every CPU-bound timing that becomes an end-to-end metric (a
set-up, a pass of a batch workload) is therefore bracketed by a fixed
reference kernel, and reported as ``wall / slowness``, where slowness is
the kernel's time around the pass over :data:`REFERENCE_NOMINAL_S`:
seconds of a host that runs the kernel in its nominal time.  The raw
walls and each slowness are printed beside the metrics.  Timings set by
a clock (``stream_paced``'s schedule, ``serve_mix``'s ACK timer) and
the per-layer numbers are left as read.
"""

from __future__ import annotations

import gc
import resource
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from benchmarks.e2e import stats
from benchmarks.e2e.inputs import OUT_DIR, Sizes, TempStores
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, UNITS
from benchmarks.e2e.trace import Tracer

#: Untraced set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: What :func:`reference_s` reads on this 2-core box when it is quiet.
#: Only a scale: it makes a scaled second read as a second of the quiet
#: box.  Changing it rescales every scaled metric of every commit alike.
REFERENCE_NOMINAL_S = 0.080

_REFERENCE_ARRAY = np.random.default_rng(0).standard_normal(65_536)


def _reference_mix() -> None:
    """Python bytecode and numpy on a cache-sized array, in turn."""
    for _ in range(3):
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(10):
            np.exp(_REFERENCE_ARRAY).cumsum()


def reference_s() -> float:
    """Wall seconds of the fixed reference kernel, about 0.08 s.

    A Python loop on the calling thread, then :func:`_reference_mix` on
    two threads at once — what the rank threads of the workloads do, in
    miniature.  It never changes with the program, so what moves it is
    the host.  Of the kernels tried (Python only, numpy only, numpy on
    a 16 MB working set, two-thread mix) this sum followed the three
    batch workloads' walls best over an hour in which they moved 2x.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    threads = [threading.Thread(target=_reference_mix) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - t0


def slowness(before_s: float, after_s: float) -> float:
    """How slow the host was between two readings of the reference
    kernel, 1.0 being this box when quiet."""
    return (before_s + after_s) / 2.0 / REFERENCE_NOMINAL_S


@dataclass
class Pass:
    """One timed pass of a batch workload."""

    #: Wall seconds as read.
    wall_s: float
    #: Host slowness around it (:func:`slowness`).
    slowness: float

    @property
    def scaled_s(self) -> float:
        """The wall in seconds of the quiet box."""
        return self.wall_s / self.slowness


@dataclass
class Measured:
    """What one workload's measured window produced."""

    #: What a unit of work is called (cells, quotes or requests).
    unit: str
    #: ``(units completed, seconds)`` per pass; throughput is that of
    #: the fastest.  A batch workload hands in one entry, its fastest
    #: round (:func:`fastest_round`) in host-speed-scaled seconds.
    passes: list[tuple[float, float]]
    #: One sample per result a user waited for (order or request); on a
    #: batch workload, where the result is a whole pass, the mean pass
    #: of the fastest round.
    latencies_ms: list[float]
    #: Operations attempted / failed or refused inside the window.
    attempted: int
    failed: int
    #: Extra facts printed beside the metrics (counts, sample sizes).
    info: dict = field(default_factory=dict)


def repeat_passes(one_pass, seconds: float, inputs: int = 1) -> list[Pass]:
    """Call ``one_pass`` until about ``seconds`` have elapsed.

    ``one_pass`` returns the wall seconds of the part of it that counts
    (checks it runs afterwards are not the program's time).  Stops
    before a pass that would overshoot the window by more than half its
    own length, but only after a whole number of rounds over the
    workload's ``inputs`` (pass ``k`` works on input ``k % inputs``);
    always runs at least one round.  The reference kernel runs before
    the first pass and after every pass, so each pass comes back with
    the host's slowness around it.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    before = reference_s()
    while True:
        wall = one_pass()
        after = reference_s()
        passes.append(Pass(wall, slowness(before, after)))
        before = after
        late = time.perf_counter() - start + wall / 2 >= seconds
        if late and len(passes) % inputs == 0:
            return passes


def fastest_round(passes: list[Pass], inputs: int = 1) -> float:
    """Scaled seconds of one round over the run's ``inputs``, each input
    timed by its fastest visit.

    Every visit to an input is the same work, and what the scaling
    leaves of the host's interference only ever adds time to one, so
    the fastest visit is the one the host touched least.  Summing over
    several inputs is what makes the figure read the same from seed to
    seed: how much work one day holds depends on the market it drew.
    """
    return sum(
        min(p.scaled_s for p in passes[k::inputs]) for k in range(inputs)
    )


def passes_info(passes: list[Pass]) -> dict:
    """The as-read walls and slownesses, for the printed rows."""
    return {
        "pass walls as read (s)": [round(p.wall_s, 3) for p in passes],
        "host slowness around each": [round(p.slowness, 3) for p in passes],
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, MB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workload(name: str, sizes: Sizes, seed: int, stores, tracer):
    """Instantiate the named workload (imports its layer lazily)."""
    if name.startswith("study_"):
        from benchmarks.e2e.study import StudyWorkload

        return StudyWorkload(name, sizes, seed, stores, tracer)
    if name.startswith("stream_"):
        from benchmarks.e2e.stream import StreamWorkload

        return StreamWorkload(name, sizes, seed, stores, tracer)
    if name == "serve_mix":
        from benchmarks.e2e.serve import ServeWorkload

        return ServeWorkload(sizes, seed)
    raise ValueError(f"unknown workload {name!r}")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes,
    setups: int = SETUPS,
) -> dict:
    """One contract run; returns ``{correct, attempted, failed, metrics}``
    plus a ``lines`` list of human-readable rows to print above it."""
    stores = TempStores()
    tracer = Tracer(enabled=trace)
    workload = make_workload(name, sizes, seed, stores, tracer)
    lines: list[str] = []
    try:
        if trace:
            workload.setup()
            values, attempted, failed = workload.layers(seconds)
            tracer.dump(OUT_DIR / f"trace_{name}.json")
            metrics = {row[0]: values.get(row[0], 0.0) for row in PER_LAYER}
            unknown = sorted(set(values) - set(metrics))
            if unknown:
                raise AssertionError(f"unlisted per-layer metrics {unknown}")
        else:
            setup_passes = []
            # serve_mix's set-up is mostly its 20 warm-up requests waiting
            # for the ACK timer: as read.
            scaled = workload.setup_is_cpu_bound
            before = reference_s()
            for _ in range(setups):
                # Drop the previous set-up's store and caches first, so
                # peak RSS reflects one set of inputs, not three.
                workload.close()
                gc.collect()
                t0 = time.perf_counter()
                workload.setup()
                wall = time.perf_counter() - t0
                after = reference_s()
                setup_passes.append(
                    Pass(wall, slowness(before, after) if scaled else 1.0)
                )
                before = after
            measured = workload.measure(seconds)
            rss = peak_rss_mb()
            oracle_attempted, oracle_failed = workload.verify()
            attempted = measured.attempted + oracle_attempted
            failed = measured.failed + oracle_failed
            tail_p, tail = stats.supported_tail(
                measured.latencies_ms, workload.tail_percentile
            )
            metrics = {
                "setup_s": stats.median([p.scaled_s for p in setup_passes]),
                "throughput_per_s": max(
                    units / wall for units, wall in measured.passes
                ),
                "latency_ms": stats.median(measured.latencies_ms),
                "latency_tail_ms": tail,
                "peak_rss_mb": rss,
            }
            assert set(metrics) == {row[0] for row in END_TO_END}
            lines.append(
                f"{name}: {measured.unit} in seconds, throughput from the "
                f"fastest of "
                f"{[(round(u), round(w, 3)) for u, w in measured.passes]}; "
                f"latency "
                + (
                    "= the mean pass of the fastest round"
                    if len(measured.latencies_ms) == 1
                    else f"over {len(measured.latencies_ms)} samples, "
                    f"tail = p{tail_p}"
                )
            )
            measured.info.update({
                "set-up walls as read (s)":
                    [round(p.wall_s, 3) for p in setup_passes],
                "host slowness around each set-up":
                    [round(p.slowness, 3) for p in setup_passes],
            })
            for key, value in measured.info.items():
                lines.append(f"  {key}: {value}")
        lines.extend(f"  {note}" for note in workload.notes)
        lines.append(f"  input digest: {workload.digest}")
    finally:
        workload.close()
        stores.close()
    for key, value in metrics.items():
        lines.append(f"  {key:<44} {value:>16.6g} {UNITS[key]}")
    lines.append(
        f"  failed_share: {failed}/{attempted} = {failed / attempted:.6f}"
    )
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            key: {"value": float(value), "unit": UNITS[key]}
            for key, value in metrics.items()
        },
        "lines": lines,
    }
