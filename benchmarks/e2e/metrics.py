"""The benchmark's vocabulary: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` lists exactly these names (a test checks it).  Every
run prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``); a per-layer metric whose layer the workload does
not exercise reads 0.
"""

from __future__ import annotations

#: name -> why the workload is here (one line each; fixed names, later
#: issues cite them).
WORKLOADS = {
    "study_robust": (
        "Table-I study in miniature on 2 ranks; robust correlation is ~75% "
        "of wall, so Maronna-kernel work must show here and nowhere else"
    ),
    "study_pearson": (
        "same engine, Pearson sets only: correlation <10% of wall, so store "
        "scan, cleaning, bars, strategy cells and bcast/gather dominate"
    ),
    "stream_replay": (
        "Figure-1 pipeline replaying a stored day unpaced on 3 ranks: the "
        "streaming layers used for throughput"
    ),
    "stream_paced": (
        "same pipeline fed open-loop on a fixed schedule: the streaming "
        "layers used for tick-to-order latency, timed from each bar's due time"
    ),
    "serve_mix": (
        "real HTTP server, 2 closed-loop keep-alive clients, 90% reads / 10% "
        "writes plus clock-scheduled session lifecycles"
    ),
}

#: (name, unit, better, bound, definition)
END_TO_END = (
    (
        "setup_s", "s", "lower", 0.25,
        "median of 3 set-ups, host-speed-scaled: generate + ingest the store "
        "+ one warm-up pass (serve_mix: boot and seed the server + 20 "
        "requests, as read)",
    ),
    (
        "throughput_per_s", "1/s", "higher", 0.25,
        "work completed / time: cells (study_*) or quotes (stream_replay) of "
        "one round over the run's inputs / the fastest round, each input "
        "timed by its fastest visit in host-speed-scaled seconds; quotes / "
        "wall of the faster session on stream_paced and requests / window on "
        "serve_mix, as read",
    ),
    (
        "latency_ms", "ms", "lower", 0.25,
        "wait for a result: p50 of tick-to-order on stream_paced and of "
        "request sent to body read on serve_mix; one whole pass, the mean "
        "pass of the fastest round, on study_* and stream_replay",
    ),
    (
        "latency_tail_ms", "ms", "lower", 0.25,
        "highest percentile with >=10 samples beyond it, capped at p99 on "
        "stream_paced and p95 on serve_mix; equal to latency_ms on the batch "
        "workloads, whose result is a whole pass",
    ),
    (
        "peak_rss_mb", "MB", "lower", 0.20,
        "ru_maxrss of the workload process after the measured passes",
    ),
)

#: Figure-1 components, in pipeline order (the collector's instance name
#: differs between replay and paced runs; the metric says ``collector``).
COMPONENTS = (
    "collector", "cleaning", "bar_accumulator", "technical",
    "correlation", "pair_trading", "order_sink",
)

#: serve routes in the mix plus the two lifecycle routes.
ROUTES = (
    "sessions_list", "session_get", "session_positions", "session_audit",
    "health", "telemetry", "watchlist_get", "watchlist_put",
    "sessions_submit", "session_delete",
)

_ALL = "all"
_STUDY = "study_*"
_STREAM = "stream_*"


def _per_layer():
    rows = [
        # (name, unit, better, measured on, should move)
        ("taq.synthetic_quotes_per_s", "1/s", "higher", _ALL,
         "setup_s on all"),
        ("store.ingest_rows_per_s", "1/s", "higher", _ALL, "setup_s on all"),
        ("store.scan_s", "s", "lower", _STUDY,
         "latency_ms on study_pearson (small share)"),
        ("store.scan_rows_per_s", "1/s", "higher", _STUDY,
         "latency_ms on study_pearson"),
        ("store.replay_rows_per_s", "1/s", "higher", _STREAM,
         "throughput_per_s on stream_replay"),
        ("clean.batch_s", "s", "lower", _STUDY,
         "latency_ms on study_pearson"),
        ("clean.rows_per_s", "1/s", "higher", _STUDY,
         "latency_ms on study_pearson"),
        ("clean.rejected_share", "ratio", "lower", _STUDY,
         "none: a count, must repeat exactly"),
        ("bars.accumulate_s", "s", "lower", _STUDY,
         "latency_ms on study_pearson"),
        ("bars.bars_per_s", "1/s", "higher", _STUDY,
         "latency_ms on study_pearson"),
        ("corr.robust_s", "s", "lower", _STUDY,
         "latency_ms on study_robust, about one-for-one"),
        ("corr.pearson_s", "s", "lower", _STUDY,
         "latency_ms on study_pearson (small)"),
        ("corr.robust_windows_per_s", "1/s", "higher", _STUDY,
         "throughput_per_s on study_robust"),
        ("corr.share", "ratio", "lower", _STUDY,
         "diagnostic: >=0.8 on study_robust, <=0.1 on study_pearson"),
        ("strategy.cells_s", "s", "lower", _STUDY,
         "latency_ms on study_pearson; small on study_robust"),
        ("strategy.cell_p50_us", "us", "lower", _STUDY,
         "latency_ms on study_pearson"),
        ("strategy.trades", "count", "higher", _STUDY,
         "none: a count, must repeat exactly"),
        ("mpi.bcast_s", "s", "lower", _STUDY,
         "latency_ms on study_pearson"),
        ("mpi.gather_merge_s", "s", "lower", _STUDY,
         "latency_ms on study_pearson (pair fan-in)"),
        ("mpi.pingpong_us", "us", "lower", "study_*, stream_*",
         "latency_* on stream_paced; throughput_per_s on stream_replay"),
        ("backtest.result_bytes", "bytes", "lower", _STUDY,
         "mpi.gather_merge_s, peak_rss_mb on study_pearson"),
        ("backtest.unattributed_share", "ratio", "lower", _STUDY,
         "diagnostic: |x| <= 0.10 or the trace does not explain the run"),
    ]
    for comp in COMPONENTS:
        rows.append(
            (f"marketminer.{comp}.busy_cpu_s", "s", "lower", _STREAM,
             "throughput_per_s on stream_replay; busiest while upstream "
             "idles is the bottleneck")
        )
        rows.append(
            (f"marketminer.{comp}.calls", "count", "lower", _STREAM,
             "none: a count, must repeat exactly")
        )
    rows += [
        ("marketminer.msgs_remote", "count", "lower", _STREAM,
         "throughput_per_s on stream_replay via mpi.pingpong_us"),
        ("marketminer.msgs_local", "count", "higher", _STREAM,
         "throughput_per_s on stream_replay"),
        ("marketminer.generate_wall_s", "s", "lower", "stream_paced",
         "latency_* on stream_paced: how long the source held its rank"),
        ("marketminer.orders_before_feed_end_share", "ratio", "higher",
         "stream_paced",
         "latency_* on stream_paced: 0 today; rising collapses them"),
        ("marketminer.drain_s", "s", "lower", "stream_paced",
         "latency_tail_ms on stream_paced"),
        ("marketminer.generator_late_p95_ms", "ms", "lower", "stream_paced",
         "validity: > 5 means the open loop fell behind its schedule"),
        ("serve.dispatch_p50_us", "us", "lower", "serve_mix",
         "latency_* on serve_mix once transport is fixed"),
        ("serve.transport_p50_ms", "ms", "lower", "serve_mix",
         "latency_ms and throughput_per_s on serve_mix, together"),
        ("serve.read_p50_ms", "ms", "lower", "serve_mix",
         "latency_ms on serve_mix"),
        ("serve.write_p50_ms", "ms", "lower", "serve_mix",
         "latency_tail_ms on serve_mix; a read cache that taxes commands"),
        ("serve.connect_ms", "ms", "lower", "serve_mix",
         "first request on a fresh connection; none on keep-alive clients"),
        ("serve.session_submit_to_done_ms", "ms", "lower", "serve_mix",
         "latency_tail_ms on serve_mix (supervised session path)"),
    ]
    for route in ROUTES:
        rows.append(
            (f"serve.route.{route}.p50_ms", "ms", "lower", "serve_mix",
             "latency_* on serve_mix")
        )
    rows.append(
        ("trace_overhead_share", "ratio", "lower", _ALL,
         "none: the cost of the benchmark's own shims")
    )
    return tuple(rows)


PER_LAYER = _per_layer()

UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}
