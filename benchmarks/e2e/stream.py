"""stream_replay / stream_paced: the Figure-1 pipeline on 3 ranks.

``stream_replay`` pushes a stored day through the pipeline as fast as it
will go (``StoreCollector``, unpaced): throughput.  ``stream_paced``
feeds the same bars open-loop from a benchmark-owned collector that
emits bar ``s`` at ``t0 + s * interval`` whether or not the pipeline
keeps up, and times every order from the moment its bar was *due* —
never from when it was actually sent — so a stall is charged to the
orders it delayed: latency.

The oracle is the batch engine: per-pair trade returns must match
``SequentialBacktester`` on the same day, pairs and parameters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np

from repro.backtest.data import BarProvider
from repro.backtest.runner import SequentialBacktester
from repro.marketminer.components.collectors import (
    CollectorBase, StoreCollector,
)
from repro.marketminer.session import (
    build_figure1_workflow, run_figure1_session,
)
from repro.store.replay import ReplayCursor

from benchmarks.e2e import stats
from benchmarks.e2e.harness import (
    Measured, fastest_round, passes_info, repeat_passes,
)
from benchmarks.e2e.inputs import (
    Sizes, ingest, make_market, sample_pairs, time_grid,
)
from benchmarks.e2e.metrics import COMPONENTS
from benchmarks.e2e.study import pingpong_us
from benchmarks.e2e.trace import Tracer

#: Head start the paced generator gives itself before bar 0 is due.
PACED_LEAD_S = 0.05
#: Allowance per paced pass for the drain after the last bar, used only
#: to decide how many passes to make in ``--seconds``.
PACED_DRAIN_ALLOWANCE_S = 1.0
#: A paced session whose generator left its batches later than this (p95)
#: did not offer the schedule it claims, so its latencies are not the
#: pipeline's.  It is dropped and made again, at most this many times a
#: run (the VM stalls for a few hundred ms now and then); a run that
#: still ends up late counts one failed operation and exits non-zero.
LATE_LIMIT_MS = 5.0
PACED_SPARE_SESSIONS = 2


def late_p95_ms(late_s: list[float]) -> tuple[int, float]:
    """``(p, ms)``: open-loop lateness at the highest percentile up to
    p95 that the bars emitted support."""
    p, value = stats.supported_tail(late_s, 95)
    return p, value * 1e3


class PacedCollector(CollectorBase):
    """Open-loop source: bar ``s`` leaves at ``t0 + s * interval_s``.

    Each interval's batch is read from the store *before* its due time,
    so the schedule measures the pipeline, not the replay cursor.
    """

    def __init__(self, reader, grid, interval_s: float, day: int):
        super().__init__(grid, "paced_collector")
        self.reader = reader
        self.day = day
        self.interval_s = interval_s
        #: due[s]: perf_counter time bar s's quote batch was due.
        self.due: list[float] = []
        #: How late each batch actually left, seconds.
        self.late: list[float] = []
        self.t_start = self.t_end = 0.0

    def generate(self, ctx) -> None:
        cursor = ReplayCursor(self.reader, self.day, self.grid)
        start, stop = self.interval_range
        self.t_start = time.perf_counter()
        t0 = self.t_start + PACED_LEAD_S
        for s in range(start, stop):
            records = cursor.interval(s)
            due = t0 + s * self.interval_s
            now = time.perf_counter()
            while now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            self.due.append(due)
            self.late.append(now - due)
            ctx.emit("quotes", (s, records))
        self.t_end = time.perf_counter()


class _CpuShims:
    """Instance-level shims timing ``generate``/``on_message`` per component.

    Timed with ``time.thread_time`` (wall is GIL-contaminated on the
    thread backend).  A handler that dispatches synchronously into a
    co-located component would otherwise be billed for it, so each
    thread keeps a stack and a frame's children are subtracted.
    """

    def __init__(self, workflow):
        self.busy = {name: 0.0 for name in COMPONENTS}
        self.calls = {name: 0 for name in COMPONENTS}
        self._stack = threading.local()
        for name, comp in workflow.components.items():
            label = "collector" if name.endswith("_collector") else name
            attr = "generate" if comp.is_source else "on_message"
            setattr(comp, attr, self._wrap(label, getattr(comp, attr)))

    def _wrap(self, label: str, fn):
        def shim(*args):
            frames = getattr(self._stack, "frames", None)
            if frames is None:
                frames = self._stack.frames = []
            frames.append(0.0)
            c0 = time.thread_time()
            try:
                return fn(*args)
            finally:
                total = time.thread_time() - c0
                children = frames.pop()
                if frames:
                    frames[-1] += total
                self.busy[label] += total - children
                self.calls[label] += 1

        return shim


class StreamWorkload:
    """Both stream workloads; ``name`` picks the collector."""

    setup_is_cpu_bound = True

    def __init__(self, name: str, sizes: Sizes, seed: int, stores,
                 tracer: Tracer):
        self.name = name
        self.paced = name == "stream_paced"
        self.tail_percentile = 99 if self.paced else 50
        self.sizes = sizes
        self.seed = seed
        self.stores = stores
        self.tracer = tracer
        self.grid_time = time_grid(sizes.stream_bars)
        self.params = [replace(sizes.base_params, **sizes.stream_override)]
        self.digest = ""
        #: Diagnostics the traced run prints beside its numbers.
        self.notes: list[str] = []
        self.ingested = None
        self._passes = 0
        self._spare_sessions = 0
        #: (day, pairs, results) of the latest session, for the oracle.
        self._last: tuple | None = None

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Ingest the wide days; warm up with one unpaced replay."""
        market = make_market(self.seed, self.sizes.wide_symbols, self.sizes)
        self.ingested = ingest(
            market, self.sizes.wide_days, self.stores.fresh(), self.tracer
        )
        self.digest = self.ingested.digest
        self._passes = 0
        self._spare_sessions = PACED_SPARE_SESSIONS
        for day in range(self.sizes.wide_days):  # fill the block cache
            self.ingested.reader.day_quotes(day)
        self.session(False, self.draw(self.sizes.wide_days - 1))

    def close(self) -> None:
        self.ingested = None

    def draw(self, k: int) -> tuple[int, list[tuple[int, int]]]:
        """Inputs of pass ``k``: its day and its seeded pair sample.

        ``stream_replay`` times each input by its fastest visit, so its
        inputs repeat every ``wide_days`` passes; ``stream_paced`` pools
        the orders of its sessions, so each draws a fresh pair sample.
        """
        sizes = self.sizes
        return k % sizes.wide_days, sample_pairs(
            self.seed, sizes.wide_symbols, sizes.stream_pairs,
            draw=k if self.paced else k % sizes.wide_days,
        )

    def next_draw(self):
        self._passes += 1
        return self.draw(self._passes - 1)

    # -- the program under test ----------------------------------------------

    def session(self, paced: bool, draw, shims: bool = False):
        """One Figure-1 session over ``draw``; returns what the taps saw.

        The order tap is an instance-level wrapper on ``order_sink``'s
        ``on_message`` recording ``(arrival time, bar index)`` per order
        message; it is on in every run because the latency metrics need
        it (one clock read per order).  ``shims`` adds the per-component
        CPU shims and the runtime's message counts (traced runs).
        """
        day, pairs = draw
        reader = self.ingested.reader
        if paced:
            collector = PacedCollector(
                reader, self.grid_time, self.sizes.paced_interval_s, day
            )
        else:
            collector = StoreCollector(reader, self.grid_time, day)
        workflow = build_figure1_workflow(
            self.ingested.market, self.grid_time, pairs, self.params,
            day=day, collector=collector,
        )
        sink = workflow.component("order_sink")
        arrivals: list[tuple[float, int]] = []
        deliver = sink.on_message

        def tap(ctx, port, payload):
            if port == "orders":
                arrivals.append((time.perf_counter(), payload[1][0].s))
            deliver(ctx, port, payload)

        sink.on_message = tap
        cpu = _CpuShims(workflow) if shims else None
        t0 = time.perf_counter()
        if shims:
            results = run_figure1_session(workflow, size=3, collect_stats=True)
        else:
            results = run_figure1_session(workflow, size=3)
        wall = time.perf_counter() - t0
        self._last = (day, pairs, results)
        return results, collector, arrivals, wall, cpu

    def run_session(self, draw, shims: bool = False):
        """:meth:`session` for this workload; on ``stream_paced`` a session
        whose generator ran late is dropped and made again while the run
        has spare sessions left, then returned as it is."""
        out = self.session(self.paced, draw, shims=shims)
        while self.paced and self._spare_sessions:
            p, late_ms = late_p95_ms(out[1].late)
            if late_ms <= LATE_LIMIT_MS:
                break
            self._spare_sessions -= 1
            self.notes.append(
                f"a session's generator ran {late_ms:.1f} ms late at p{p}: "
                f"dropped and made again"
            )
            out = self.session(True, draw, shims=shims)
        return out

    def _session_failures(self, results: dict) -> tuple[int, int]:
        """(attempted, failed) of one session's completeness checks."""
        smax = self.grid_time.smax
        missing = smax - results["bar_accumulator"]["bars_emitted"]
        open_pairs = results["order_sink"]["open_pairs_at_close"]
        head = 0 if results["pair_trading"]["head"] == 0 else 1
        return smax + 2, abs(missing) + open_pairs + head

    def _rows(self, day: int) -> int:
        """Quotes a session over ``day`` collects."""
        return ReplayCursor(
            self.ingested.reader, day, self.grid_time
        ).total_rows

    def _n_paced_passes(self, seconds: float) -> int:
        """Whole sessions whose total length comes nearest to ``seconds``."""
        feed = self.grid_time.smax * self.sizes.paced_interval_s
        return max(1, round(seconds / (feed + PACED_DRAIN_ALLOWANCE_S)))

    def measure(self, seconds: float) -> Measured:
        attempted = failed = 0
        days: list[int] = []
        latencies: list[float] = []
        late: list[float] = []
        walls: list[float] = []

        def one_pass():
            nonlocal attempted, failed
            draw = self.next_draw()
            results, collector, arrivals, wall, _ = self.run_session(draw)
            walls.append(wall)
            days.append(draw[0])
            a, f = self._session_failures(results)
            attempted += a
            failed += f
            if self.paced:
                late.extend(collector.late)
                latencies.extend(
                    (t - collector.due[s]) * 1e3 for t, s in arrivals
                )
            return wall

        info = {"pairs per session": self.sizes.stream_pairs}
        if self.paced:
            # Set by the feed schedule, not by the CPU: left as read.
            for _ in range(self._n_paced_passes(seconds)):
                one_pass()
            measured_passes = [
                (self._rows(d), w) for d, w in zip(days, walls)
            ]
            info["tick-to-order samples"] = len(latencies)
            p, late_ms = late_p95_ms(late)
            behind = late_ms > LATE_LIMIT_MS
            attempted += 1
            failed += behind
            info[f"generator late p{p} (ms), {len(late)} bars"] = (
                f"{late_ms:.3f}"
                + (" - INVALID, the open loop fell behind" if behind else "")
            )
        else:
            inputs = self.sizes.wide_days
            passes = repeat_passes(one_pass, seconds, inputs)
            round_s = fastest_round(passes, inputs)
            measured_passes = [
                (sum(self._rows(d) for d in days[:inputs]), round_s)
            ]
            # The wait for a result is one whole session.
            latencies.append(round_s / inputs * 1e3)
            info.update({
                "bars/s": round(self.grid_time.smax * inputs / round_s, 2),
                "inputs (day, pair sample) visited in turn": inputs,
                **passes_info(passes),
            })
        return Measured(
            unit="quotes",
            passes=measured_passes,
            latencies_ms=latencies,
            attempted=attempted, failed=failed, info=info,
        )

    # -- oracle --------------------------------------------------------------

    def verify(self) -> tuple[int, int]:
        """The latest session's per-pair trade returns equal the batch
        engine's on the same day, pairs and parameters."""
        day, pairs, results = self._last
        provider = BarProvider(self.ingested.market, self.grid_time)
        batch = SequentialBacktester(provider).run(pairs, self.params, [day])
        trades = results["pair_trading"]["trades"]
        failed = 0
        for pair in pairs:
            got = np.asarray([t.ret for t in trades[(pair, 0)]], dtype=float)
            want = batch.cell(pair, 0, day)
            if got.shape != want.shape or not np.allclose(
                got, want, rtol=0.0, atol=1e-12
            ):
                failed += 1
        return len(pairs), failed

    # -- traced run ----------------------------------------------------------

    def layers(self, seconds: float) -> tuple[dict, int, int]:
        """Alternate plain sessions with shimmed ones over the same draw.

        Counts and per-component CPU are reported from the first round,
        which always has the same inputs, so they compare across runs
        however many rounds fit; the overhead is a median over rounds.
        """
        plain_walls: list[float] = []
        shim_walls: list[float] = []
        attempted = failed = 0
        late: list[float] = []
        first: dict = {}

        def one_round():
            nonlocal attempted, failed
            draw = self.next_draw()
            for shims, walls in ((False, plain_walls), (True, shim_walls)):
                results, collector, arrivals, wall, cpu = self.run_session(
                    draw, shims=shims
                )
                walls.append(wall)
                if self.paced:
                    late.extend(collector.late)
                a, f = self._session_failures(results)
                attempted += a
                failed += f
            if not first:
                first.update(
                    results=results, collector=collector, arrivals=arrivals,
                    cpu=cpu,
                )
            return plain_walls[-1] + shim_walls[-1]

        if self.paced:
            one_round()
        else:
            repeat_passes(one_round, seconds)
        oracle_attempted, oracle_failed = self.verify()
        tracer = self.tracer
        runtime = first["results"]["_runtime"]
        cursor = ReplayCursor(self.ingested.reader, 0, self.grid_time)
        with tracer.span("store.replay"):
            replayed = sum(records.size for _, records in cursor)
        plain = stats.median(plain_walls)
        values = {
            "taq.synthetic_quotes_per_s":
                self.ingested.rows / tracer.total("taq.synthetic"),
            "store.ingest_rows_per_s":
                self.ingested.rows / tracer.total("store.ingest"),
            "store.replay_rows_per_s":
                replayed / tracer.total("store.replay"),
            "mpi.pingpong_us": pingpong_us(),
            "marketminer.msgs_remote":
                sum(r["messages_remote"] for r in runtime.values()),
            "marketminer.msgs_local":
                sum(r["messages_local"] for r in runtime.values()),
            "trace_overhead_share":
                (stats.median(shim_walls) - plain) / plain,
        }
        cpu = first["cpu"]
        for comp in COMPONENTS:
            values[f"marketminer.{comp}.busy_cpu_s"] = cpu.busy[comp]
            values[f"marketminer.{comp}.calls"] = cpu.calls[comp]
        if self.paced:
            collector, arrivals = first["collector"], first["arrivals"]
            p, late_ms = late_p95_ms(late)
            behind = late_ms > LATE_LIMIT_MS
            attempted += 1
            failed += behind
            values.update({
                "marketminer.generate_wall_s":
                    collector.t_end - collector.t_start,
                "marketminer.orders_before_feed_end_share": sum(
                    1 for t, _ in arrivals if t < collector.t_end
                ) / len(arrivals),
                "marketminer.drain_s":
                    max(t for t, _ in arrivals) - collector.due[-1],
                "marketminer.generator_late_p95_ms": late_ms,
            })
            self.notes.append(
                f"{len(arrivals)} orders in the shimmed session; generator "
                f"late p{p} over the {len(late)} bars of both sessions"
                + (" - INVALID, the open loop fell behind" if behind else "")
            )
        return values, attempted + oracle_attempted, failed + oracle_failed
