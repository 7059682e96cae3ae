"""Command-line interface.

One executable, ``repro``, with a subcommand per common workflow::

    repro table1                      # print the Table-I parameter grid
    repro taq-sample --symbols 8      # synthesise and print Table-II rows
    repro sweep --symbols 8 --days 3  # run the study, print Tables III-V
    repro pipeline --symbols 6        # stream a Figure-1 live session
    repro top --refresh 0.5           # live telemetry view over a session
    repro chaos --plan crash-mid      # chaos-test a supervised session
    repro screen --symbols 12         # candidate-pair screening funnel
    repro stats obs.json              # render a telemetry report
    repro lint --strict               # graph-spec lint + source rules
    repro store ingest --root DIR     # build a partitioned tick store
    repro store verify --root DIR     # checksum (and --deep re-derive) it
    repro store scan --root DIR       # pushdown column scans over it
    repro serve --port 8972           # multi-tenant HTTP/JSON server

Every command is deterministic given ``--seed`` and prints plain text, so
the CLI doubles as a smoke test of the whole stack.  ``pipeline``,
``sweep`` and ``report`` accept ``--obs-json PATH`` to dump the run's
observability report (schema ``repro.obs/v1``) for ``repro stats``.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Sequence


def _add_market_args(parser: argparse.ArgumentParser, symbols: int) -> None:
    parser.add_argument(
        "--symbols", type=int, default=symbols,
        help=f"universe size (default {symbols}, paper scale 61)",
    )
    parser.add_argument(
        "--seconds", type=int, default=23_400 // 2,
        help="trading session length in seconds (paper: 23400)",
    )
    parser.add_argument("--seed", type=int, default=2008)


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.strategy.params import format_table1, paper_parameter_grid

    print(format_table1())
    print(f"\n{len(paper_parameter_grid())} parameter sets "
          f"(3 treatments x 14 levels)")
    return 0


def _cmd_taq_sample(args: argparse.Namespace) -> int:
    from repro.taq.io import format_table2
    from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
    from repro.taq.universe import default_universe

    market = SyntheticMarket(
        default_universe(args.symbols),
        SyntheticMarketConfig(trading_seconds=args.seconds),
        seed=args.seed,
    )
    quotes = market.quotes(0)
    print(format_table2(quotes, market.universe, limit=args.rows))
    print(f"\n{quotes.size} quotes, {args.symbols} symbols, "
          f"{args.seconds} seconds")
    return 0


def _make_obs(args: argparse.Namespace):
    """An enabled Obs when ``--obs-json`` was given, else None."""
    if not getattr(args, "obs_json", None):
        return None
    from repro.obs import Obs

    return Obs(enabled=True)


def _dump_obs(args: argparse.Namespace, report: dict | None) -> None:
    if report is None or not getattr(args, "obs_json", None):
        return
    from repro.obs import write_json

    write_json(report, args.obs_json)
    print(f"\nobservability report written to {args.obs_json}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.backtest.sweep import SweepConfig, run_sweep
    from repro.metrics.summary import (
        format_treatment_table,
        treatment_summaries,
    )
    from repro.strategy.params import StrategyParams

    config = SweepConfig(
        n_symbols=args.symbols,
        n_days=args.days,
        trading_seconds=args.seconds,
        seed=args.seed,
        n_levels=args.levels,
        base_params=StrategyParams(
            m=60, w=30, y=8, rt=30, hp=20, st=10, d=0.001
        ),
        ranks=args.ranks,
        on_error="continue" if args.continue_on_error else "abort",
    )
    obs = _make_obs(args)
    failures: list = []
    store, grid = run_sweep(config, obs=obs, failures=failures)
    print(
        f"{len(store.pairs)} pairs x {len(grid)} parameter sets x "
        f"{args.days} days: {store.n_trades} trades\n"
    )
    for measure, title in (
        ("returns", "Table III: average cumulative returns (gross)"),
        ("drawdown", "Table IV: average maximum daily drawdown"),
        ("winloss", "Table V: average win-loss ratio"),
    ):
        print(format_treatment_table(
            treatment_summaries(store, grid, measure), title
        ))
        print()
    _dump_obs(args, obs.report() if obs is not None else None)
    if failures:
        print(f"\n{len(failures)} cell(s) FAILED and were skipped:")
        for f in failures:
            print(f"  {f.describe()}")
        return 3
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.marketminer.session import run_figure1_session

    workflow = _build_figure1_from_args(args)
    print(workflow.describe())
    results = run_figure1_session(
        workflow, size=args.ranks, collect_stats=True,
        obs_enabled=bool(args.obs_json),
    )
    n_trades = sum(len(v) for v in results["pair_trading"]["trades"].values())
    sink = results["order_sink"]
    print(
        f"\n{results['bar_accumulator']['bars_emitted']} bars, "
        f"{n_trades} trades, {sink['accepted_orders']} orders, "
        f"{sink['open_pairs_at_close']} open at close"
    )
    for rank, stats in results["_runtime"].items():
        print(
            f"  rank {rank}: {stats['messages_local']} local / "
            f"{stats['messages_remote']} remote messages "
            f"({', '.join(stats['components'])})"
        )
    _dump_obs(args, results.get("_obs"))
    return 0


def _chaos_figure1(args: argparse.Namespace, plan) -> int:
    from repro.faults import run_supervised_session, session_results_equal

    build = partial(_build_figure1_from_args, args)
    options = {"default_timeout": args.timeout}
    clean = run_supervised_session(
        build, size=args.ranks, backend=args.backend,
        backend_options=options,
    )
    chaos = run_supervised_session(
        build, size=args.ranks, backend=args.backend, plan=plan,
        checkpoint_every=args.checkpoint_every,
        max_restarts=args.max_restarts, backend_options=options,
        flight_dump=args.flight_dump,
    )
    print(f"plan {plan.name!r} on figure1 ({args.ranks} ranks, "
          f"{args.backend} backend):")
    for entry in chaos.log:
        if entry[0] == "restart":
            _, epoch, attempt, classified = entry
            detail = "; ".join(
                f"rank {r}: {t}" + (f" ({d})" if d else "")
                for r, t, d in classified
            )
            print(f"  restart epoch {epoch} attempt {attempt}: {detail}")
        else:
            _, epoch, attempt, _, events = entry
            n = sum(len(ev) for _, ev in events)
            print(f"  run epoch {epoch} attempt {attempt}: ok "
                  f"({n} fault event(s))")
    print(f"  {chaos.restarts} restart(s), {chaos.checkpoints} "
          f"checkpoint(s), {chaos.attempts} attempt(s)")
    if args.flight_dump:
        from pathlib import Path

        dumps = sorted(Path(args.flight_dump).glob("rank*-attempt*.jsonl"))
        print(f"  {len(dumps)} flight dump(s) under {args.flight_dump}:")
        for dump in dumps:
            print(f"    {dump.name}")
    identical = session_results_equal(clean.results, chaos.results)
    print(f"recovered results identical to fault-free run: {identical}")
    return 0 if identical else 1


def _chaos_sweep(args: argparse.Namespace, plan) -> int:
    """Approach-3 backtest under chaos: stateless jobs, so recovery is a
    clean re-run at the next fault attempt (faults are attempt-scoped)."""
    from repro.backtest.data import BarProvider
    from repro.backtest.distributed import DistributedBacktester
    from repro.faults.injector import FaultInjector
    from repro.mpi.api import MpiError
    from repro.mpi.launcher import run_spmd
    from repro.strategy.params import StrategyParams
    from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
    from repro.taq.universe import default_universe
    from repro.util.timeutil import TimeGrid

    market = SyntheticMarket(
        default_universe(args.symbols),
        SyntheticMarketConfig(trading_seconds=args.seconds),
        seed=args.seed,
    )
    provider = BarProvider(
        market, TimeGrid(30, trading_seconds=args.seconds)
    )
    pairs = list(market.universe.pairs())
    # Windows sized so a half-length smoke session still fits m observations.
    params = [StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=4, d=0.002)]

    def run_once(fault_plan, attempt):
        def spmd(comm):
            if fault_plan is not None:
                injector = FaultInjector(
                    fault_plan, comm.rank, attempt=attempt
                )
                comm.attach_faults(injector)
            try:
                return DistributedBacktester(provider).run(
                    comm, pairs, params, [0]
                )
            finally:
                comm.attach_faults(None)

        return run_spmd(
            spmd, size=args.ranks, backend=args.backend,
            default_timeout=args.timeout,
        )[0]

    clean = run_once(None, 0)
    attempt = 0
    restarts = 0
    while True:
        try:
            chaos = run_once(plan, attempt)
            break
        except MpiError as exc:
            restarts += 1
            print(f"  attempt {attempt} failed: {type(exc).__name__}")
            if restarts > args.max_restarts:
                print("restart budget exhausted", file=sys.stderr)
                return 1
            attempt += 1
    print(f"plan {plan.name!r} on sweep ({args.ranks} ranks, "
          f"{args.backend} backend): {restarts} restart(s)")
    identical = chaos == clean
    print(f"recovered results identical to fault-free run: {identical}")
    return 0 if identical else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import named_plan, plan_descriptions

    if args.list_plans:
        for name, description in plan_descriptions().items():
            print(f"  {name:10s} {description}")
        return 0
    if args.plan is None:
        print("one of --plan or --list-plans is required", file=sys.stderr)
        return 2
    plan = named_plan(
        args.plan, size=args.ranks, stall_seconds=args.stall_seconds,
        at_op=args.at_op if args.at_op is not None
        else (4 if args.target == "sweep" else None),
    )
    if args.target == "figure1":
        return _chaos_figure1(args, plan)
    if args.flight_dump:
        print("--flight-dump requires --target figure1 (the supervised "
              "session owns the recorders)", file=sys.stderr)
        return 2
    return _chaos_sweep(args, plan)


def _parse_resize_specs(specs) -> list[tuple[int, int]]:
    """Parse repeated ``--resize EPOCH:SIZE`` flags, with pointed errors."""
    out = []
    for text in specs or ():
        epoch, sep, size = text.partition(":")
        if not sep or not epoch.isdigit() or not size.isdigit():
            raise ValueError(
                f"bad --resize {text!r}: expected EPOCH:SIZE with two "
                f"non-negative integers, e.g. --resize 1:4"
            )
        out.append((int(epoch), int(size)))
    return out


def _cmd_elastic(args: argparse.Namespace) -> int:
    """Run a supervised session under a resize plan; optionally verify the
    headline invariant (rescaled run == fixed-size run, bitwise)."""
    from repro.elastic import ResizePlan, ResizeRequest
    from repro.faults import (
        fold_obs_counters,
        run_supervised_session,
        session_results_equal,
    )
    from repro.marketminer.session import build_synthetic_figure1
    from repro.strategy.params import StrategyParams

    try:
        resizes = _parse_resize_specs(args.resize)
    except ValueError as exc:
        print(f"elastic: {exc}", file=sys.stderr)
        return 2
    plan = ResizePlan(tuple(ResizeRequest(e, s) for e, s in resizes))

    # Short-session parameters (the chaos/top builder's Table-I values
    # need a near-full trading day before any signal fires).
    params = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=4, d=0.002)
    build = partial(
        build_synthetic_figure1, args.symbols, args.seconds, args.seed, params
    )
    options = {"default_timeout": args.timeout}
    run = run_supervised_session(
        build, size=args.ranks, backend=args.backend, resize=plan,
        checkpoint_every=args.checkpoint_every, obs_enabled=True,
        backend_options=options,
    )
    pools = "->".join(str(p) for p in run.pool_sizes)
    n_trades = sum(
        len(v) for v in run.results["pair_trading"]["trades"].values()
    )
    print(f"elastic session: pool {pools}, "
          f"{len(run.resizes)} resize(s) applied, "
          f"{run.checkpoints} checkpoint(s), {n_trades} trades")
    for epoch, old, new in run.resizes:
        print(f"  epoch {epoch}: {old} -> {new} ranks")

    if args.compare_fixed is None:
        return 0
    fixed = run_supervised_session(
        build, size=args.compare_fixed, backend=args.backend,
        checkpoint_every=args.checkpoint_every, obs_enabled=True,
        backend_options=options,
    )
    exclude = ("mpi.",)  # transport counters scale with the pool by design
    results_ok = session_results_equal(fixed.results, run.results)
    counters_ok = fold_obs_counters(
        fixed.obs_reports, exclude_prefixes=exclude
    ) == fold_obs_counters(run.obs_reports, exclude_prefixes=exclude)
    print(f"bitwise vs fixed size {args.compare_fixed}: "
          f"results={results_ok} domain_counters={counters_ok}")
    return 0 if results_ok and counters_ok else 1


def _build_figure1_from_args(args: argparse.Namespace):
    from repro.marketminer.session import build_synthetic_figure1
    from repro.strategy.params import StrategyParams

    return build_synthetic_figure1(
        args.symbols, args.seconds, args.seed,
        StrategyParams(m=60, w=30, y=8, rt=30, hp=20, st=10, d=0.001),
        n_corr_engines=getattr(args, "engines", 1),
    )


def _top_frame(frame: str, plain: bool) -> None:
    if plain:
        print(frame)
        print("-" * 72)
    else:
        # Clear screen, home cursor, repaint.
        print("\x1b[2J\x1b[H" + frame, flush=True)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live telemetry view: run a session in a worker thread, repaint the
    hub's frame until it finishes, then print the session summary."""
    import threading

    from repro.obs.live import HealthRule, TelemetryHub, render_top

    rules = []
    for text in args.health or ():
        try:
            rules.append(HealthRule.parse(text))
        except ValueError as exc:
            print(f"top: bad --health rule: {exc}", file=sys.stderr)
            return 2
    hub = TelemetryHub(rules=rules)
    outcome: dict = {}
    supervisor = None

    def session() -> None:
        try:
            if args.target == "chaos":
                from repro.faults import named_plan, run_supervised_session

                plan = named_plan(args.plan, size=args.ranks)
                outcome["run"] = run_supervised_session(
                    lambda: _build_figure1_from_args(args),
                    size=args.ranks, plan=plan,
                    checkpoint_every=args.checkpoint_every,
                    obs_enabled=True, obs_hook=hub.register,
                    control=supervisor,
                    backend_options={"default_timeout": args.timeout},
                )
                outcome["results"] = outcome["run"].results
            else:
                from repro.marketminer.session import run_figure1_session

                outcome["results"] = run_figure1_session(
                    _build_figure1_from_args(args),
                    size=args.ranks, collect_stats=True, obs_enabled=True,
                    obs_hook=hub.register,
                )
        except BaseException as exc:  # reported after the final frame
            outcome["error"] = exc

    if args.target == "chaos":
        from repro.marketminer.session import SessionControl

        supervisor = SessionControl(poll_interval=0.02)
    worker = threading.Thread(target=session, name="repro-top", daemon=True)
    plain = args.plain or not sys.stdout.isatty()
    worker.start()
    while worker.is_alive():
        worker.join(timeout=args.refresh)
        hub.sample()
        _top_frame(
            render_top(hub, window=args.window, supervisor=supervisor), plain
        )

    error = outcome.get("error")
    if error is not None:
        print(f"top: session failed: {type(error).__name__}: {error}",
              file=sys.stderr)
        return 1
    results = outcome["results"]
    n_trades = sum(len(v) for v in results["pair_trading"]["trades"].values())
    print(f"\nsession complete: "
          f"{results['bar_accumulator']['bars_emitted']} bars, "
          f"{n_trades} trades")
    run = outcome.get("run")
    if run is not None:
        pools = "->".join(str(p) for p in run.pool_sizes) or "-"
        print(f"  {run.restarts} restart(s), {run.checkpoints} "
              f"checkpoint(s), {run.attempts} attempt(s), "
              f"pool {pools}")
    _dump_obs(args, results.get("_obs"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.backtest.report import StudyReportOptions, study_report
    from repro.backtest.sweep import SweepConfig, run_sweep
    from repro.strategy.params import StrategyParams

    config = SweepConfig(
        n_symbols=args.symbols,
        n_days=args.days,
        trading_seconds=args.seconds,
        seed=args.seed,
        n_levels=args.levels,
        base_params=StrategyParams(
            m=60, w=30, y=8, rt=30, hp=20, st=10, d=0.001
        ),
        ranks=args.ranks,
    )
    obs = _make_obs(args)
    store, grid = run_sweep(config, obs=obs)
    print(
        study_report(
            store,
            grid,
            StudyReportOptions(
                symbols=config.build_universe().symbols,
                n_bootstrap=args.bootstrap,
                seed=args.seed,
            ),
        )
    )
    _dump_obs(args, obs.report() if obs is not None else None)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import load_report, render_text

    try:
        report = load_report(args.path)
    except FileNotFoundError:
        print(f"stats: no such report: {args.path}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    print(render_text(report))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        DiagnosticReport,
        lint_graph,
        lint_tree,
        list_rules,
    )

    if args.list_rules:
        print(list_rules())
        return 0
    if args.root:
        root = Path(args.root)
    else:
        import repro

        root = Path(repro.__file__).resolve().parent
    if not root.exists():
        print(f"lint root not found: {root}", file=sys.stderr)
        return 2

    report = DiagnosticReport()
    if not args.skip_graph:
        spec = _build_figure1_from_args(args).spec()
        report.extend(
            lint_graph(spec, size=args.ranks, rank_budget=args.rank_budget)
        )
    if not args.skip_repo:
        report.extend(lint_tree(root))
    print(report.render())
    failed = report.errors > 0 or (args.strict and report.warnings > 0)
    return 1 if failed else 0


def _cmd_screen(args: argparse.Namespace) -> int:
    from repro.backtest.data import BarProvider
    from repro.corr.clustering import (
        correlation_clusters,
        screen_candidate_pairs,
    )
    from repro.corr.measures import corr_matrix
    from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
    from repro.taq.universe import default_universe
    from repro.util.timeutil import TimeGrid

    market = SyntheticMarket(
        default_universe(args.symbols),
        SyntheticMarketConfig(trading_seconds=args.seconds),
        seed=args.seed,
    )
    provider = BarProvider(
        market, TimeGrid(30, trading_seconds=args.seconds)
    )
    returns = provider.returns(0)
    matrix = corr_matrix(returns, args.measure)
    symbols = market.universe.symbols

    print(f"Clusters (rho >= {args.threshold}):")
    for cluster in correlation_clusters(matrix, args.threshold):
        if len(cluster) > 1:
            print("  [" + ", ".join(symbols[i] for i in sorted(cluster)) + "]")
    candidates = screen_candidate_pairs(
        matrix, n_obs=returns.shape[0], threshold=args.threshold,
        max_pairs=args.top,
    )
    print(f"\nTop {len(candidates)} candidates "
          f"(Fisher-z lower bound >= {args.threshold}):")
    for c in candidates:
        i, j = c.pair
        print(f"  {symbols[i]}/{symbols[j]:<6} rho={c.correlation:.3f} "
              f"(lb {c.lower_bound:.3f})")
    return 0


def _cmd_store_ingest(args: argparse.Namespace) -> int:
    from repro.store import ingest_csv, ingest_synthetic
    from repro.taq.universe import default_universe

    obs = _make_obs(args)
    if args.from_csv:
        manifest = ingest_csv(
            args.root, args.from_csv, default_universe(args.symbols),
            trading_seconds=args.seconds, n_shards=args.shards,
            block_rows=args.block_rows, obs=obs,
        )
    else:
        from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig

        market = SyntheticMarket(
            default_universe(args.symbols),
            SyntheticMarketConfig(trading_seconds=args.seconds),
            seed=args.seed,
        )
        manifest = ingest_synthetic(
            args.root, market, n_days=args.days, n_shards=args.shards,
            block_rows=args.block_rows, obs=obs,
        )
    days = manifest["days"]
    rows = sum(e["rows"] for e in days.values())
    nbytes = sum(s["bytes"] for e in days.values() for s in e["shards"])
    print(
        f"ingested {len(days)} days x "
        f"{len(manifest['universe']['symbols'])} symbols -> "
        f"{rows} rows, {manifest['n_shards']} shards/day, "
        f"{nbytes} segment bytes under {args.root}"
    )
    _dump_obs(args, obs.report() if obs is not None else None)
    return 0


def _cmd_store_ls(args: argparse.Namespace) -> int:
    from repro.store import StoreReader

    reader = StoreReader(args.root)
    man = reader.manifest
    source = man.get("source") or {}
    print(
        f"{man['schema']}: {len(reader.days)} days, "
        f"{len(reader.universe)} symbols, {reader.n_shards} shards/day, "
        f"source={source.get('kind', '?')}"
    )
    for day in reader.days:
        entry = man["days"][str(day)]
        t_min, t_max = entry["t_min"], entry["t_max"]
        span = (
            f"t=[{t_min:9.2f}, {t_max:9.2f}]"
            if t_min is not None else "t=[empty]"
        )
        crossed = sum(
            s["quality"]["n_crossed"] for s in entry["shards"]
        )
        print(f"  day {day:3d}: {entry['rows']:9d} rows  {span}  "
              f"{crossed} crossed")
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.store import CodecError, StoreReader, verify_store

    try:
        summary = verify_store(StoreReader(args.root), deep=args.deep)
    except CodecError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(
        f"OK: {summary['segments']} segments / {summary['blocks']} blocks / "
        f"{summary['rows']} rows across {summary['days']} days verified"
        + (f"; {summary['deep_days']} days re-derived bitwise"
           if args.deep else "")
    )
    return 0


def _cmd_store_scan(args: argparse.Namespace) -> int:
    from repro.store import StoreReader

    obs = _make_obs(args)
    reader = StoreReader(args.root, obs=obs)
    columns = args.columns.split(",") if args.columns else None
    symbols = args.select.split(",") if args.select else None
    days = args.days if args.days else None
    rows = segments = 0
    for batch in reader.scan(
        columns=columns, days=days, symbols=symbols,
        t_min=args.t_min, t_max=args.t_max, cached=args.cached,
    ):
        rows += batch.rows
        segments += 1
    print(f"scanned {rows} rows from {segments} segments")
    if args.cached:
        stats = reader.cache.stats()
        print(f"cache: {stats['hits']} hits / {stats['misses']} misses "
              f"({stats['hit_rate']:.0%}), {stats['bytes']} bytes held")
    _dump_obs(args, obs.report() if obs is not None else None)
    return 0


_STORE_COMMANDS = {
    "ingest": _cmd_store_ingest,
    "ls": _cmd_store_ls,
    "verify": _cmd_store_verify,
    "scan": _cmd_store_scan,
}


def _cmd_store(args: argparse.Namespace) -> int:
    return _STORE_COMMANDS[args.store_command](args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import secrets

    from repro.obs import Obs
    from repro.serve import ServeApp, SessionManager, make_server

    token = args.token
    if token is None:
        token = secrets.token_hex(16)
        print(f"generated bearer token: {token}")
    store = None
    if args.store_root is not None:
        from repro.store import StoreReader

        store = StoreReader(args.store_root)
        print(f"store attached: {args.store_root} "
              f"({len(store.days)} days, {len(store.universe)} symbols)")
    manager = SessionManager(
        max_live=args.max_sessions,
        retain=max(args.retain, args.max_sessions + 1),
        flight_root=args.flight_root,
    )
    app = ServeApp(manager, token=token, obs=Obs(enabled=True), store=store)
    server = make_server(app, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"repro serve listening on http://{host}:{port} "
          f"(max {args.max_sessions} live sessions)")
    print("routes: GET /health | GET /telemetry | GET /metrics | "
          "POST /sessions | ...  (see docs/serving.md)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down: killing live sessions...")
    finally:
        manager.kill_all()
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A High Performance Pair Trading "
        "Application' (IPPS 2009)",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning"), default=None,
        help="configure the 'repro' logger at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table-I parameter grid")

    p = sub.add_parser("taq-sample", help="print Table-II style quote rows")
    _add_market_args(p, symbols=8)
    p.add_argument("--rows", type=int, default=12)

    p = sub.add_parser("sweep", help="run the study, print Tables III-V")
    _add_market_args(p, symbols=8)
    p.add_argument("--days", type=int, default=2)
    p.add_argument("--levels", type=int, default=4,
                   help="factor levels per treatment (max 14)")
    p.add_argument("--ranks", type=int, default=2)
    p.add_argument("--continue-on-error", action="store_true",
                   help="skip failed (pair, day, set) cells, print a "
                   "failure manifest and exit 3 instead of aborting")
    p.add_argument("--obs-json", metavar="PATH", default=None,
                   help="write the run's observability report here")

    p = sub.add_parser(
        "chaos",
        help="run a session under a seeded fault plan and verify recovery",
    )
    _add_market_args(p, symbols=4)
    p.add_argument("--plan", default=None,
                   help="named fault plan (see --list-plans)")
    p.add_argument("--list-plans", action="store_true",
                   help="list the named fault plans and exit")
    p.add_argument("--target", choices=("figure1", "sweep"),
                   default="figure1",
                   help="chaos a Figure-1 session or an Approach-3 backtest")
    p.add_argument("--ranks", type=int, default=3)
    p.add_argument("--backend", choices=("thread", "process"),
                   default="thread")
    p.add_argument("--checkpoint-every", type=int, default=20,
                   help="intervals per checkpoint epoch (figure1 target)")
    p.add_argument("--max-restarts", type=int, default=3)
    p.add_argument("--stall-seconds", type=float, default=0.5,
                   help="sleep injected by the 'stall' plan")
    p.add_argument("--at-op", type=int, default=None,
                   help="override the crash/stall trigger op (default: "
                   "plan value for figure1, 4 for the short sweep target)")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="per-recv timeout for the session's communicators")
    p.add_argument("--flight-dump", metavar="DIR", default=None,
                   help="dump every attempt's per-rank flight-recorder "
                   "rings here as rank<r>-attempt<a>.jsonl (figure1 target)")

    p = sub.add_parser(
        "elastic",
        help="run a session under an epoch-boundary resize plan and "
        "verify the rescaled run matches a fixed-size run bitwise",
    )
    _add_market_args(p, symbols=4)
    p.add_argument("--ranks", type=int, default=2,
                   help="starting rank-pool size")
    p.add_argument("--resize", metavar="EPOCH:SIZE", action="append",
                   default=None,
                   help="resize the pool to SIZE at epoch EPOCH's boundary "
                   "(repeatable, e.g. --resize 1:4 --resize 2:3)")
    p.add_argument("--checkpoint-every", type=int, default=20,
                   help="intervals per checkpoint epoch")
    p.add_argument("--backend", choices=("thread", "process"),
                   default="thread")
    p.add_argument("--compare-fixed", type=int, metavar="RANKS",
                   default=None,
                   help="also run at this fixed size and exit 1 unless the "
                   "results and folded domain counters match bitwise")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="per-recv timeout for the session's communicators")

    p = sub.add_parser("pipeline", help="stream a Figure-1 live session")
    _add_market_args(p, symbols=6)
    p.add_argument("--ranks", type=int, default=3)
    p.add_argument("--engines", type=int, default=1,
                   help="parallel correlation engines")
    p.add_argument("--obs-json", metavar="PATH", default=None,
                   help="write the run's observability report here")

    p = sub.add_parser(
        "top",
        help="live telemetry view (rates, queue depth, component duty) "
        "over a running session",
    )
    _add_market_args(p, symbols=6)
    p.add_argument("--ranks", type=int, default=3)
    p.add_argument("--engines", type=int, default=1,
                   help="parallel correlation engines")
    p.add_argument("--target", choices=("pipeline", "chaos"),
                   default="pipeline",
                   help="watch a plain Figure-1 session or a supervised "
                   "chaos session")
    p.add_argument("--plan", default="crash-mid",
                   help="fault plan for --target chaos")
    p.add_argument("--checkpoint-every", type=int, default=20,
                   help="intervals per checkpoint epoch (chaos target)")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="per-recv timeout (chaos target)")
    p.add_argument("--refresh", type=float, default=0.5,
                   help="seconds between sampling ticks / repaints")
    p.add_argument("--window", type=float, default=5.0,
                   help="rate/percentile window in seconds")
    p.add_argument("--health", metavar="RULE", action="append", default=None,
                   help="health rule, e.g. 'mpi.pending.depth mean[2] > 50' "
                   "(repeatable)")
    p.add_argument("--plain", action="store_true",
                   help="append frames instead of repainting (default when "
                   "stdout is not a tty)")
    p.add_argument("--obs-json", metavar="PATH", default=None,
                   help="write the session's observability report here")

    p = sub.add_parser(
        "report", help="run a study and print the full evaluation report"
    )
    _add_market_args(p, symbols=8)
    p.add_argument("--days", type=int, default=2)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--ranks", type=int, default=2)
    p.add_argument("--bootstrap", type=int, default=500)
    p.add_argument("--obs-json", metavar="PATH", default=None,
                   help="write the run's observability report here")

    p = sub.add_parser(
        "stats", help="render an observability report written by --obs-json"
    )
    p.add_argument("path", help="path to a repro.obs/v1 JSON report")

    p = sub.add_parser(
        "lint",
        help="static checks: graph lint on the Figure-1 spec + the source "
        "rules over one parse of the tree",
    )
    _add_market_args(p, symbols=6)
    p.add_argument("--ranks", type=int, default=2,
                   help="scheduler size the placement rules validate against")
    p.add_argument("--engines", type=int, default=1,
                   help="parallel correlation engines in the linted spec")
    p.add_argument("--rank-budget", type=float, default=None,
                   help="flag ranks whose placed weight exceeds this budget")
    p.add_argument("--root", metavar="DIR", default=None,
                   help="lint this tree (default: the installed "
                   "repro package)")
    p.add_argument("--skip-graph", action="store_true",
                   help="skip the graph-spec lint pass")
    p.add_argument("--skip-repo", action="store_true",
                   help="skip the source-rule pass")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on warnings, not just errors")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")

    p = sub.add_parser(
        "store", help="partitioned columnar tick store (ingest/ls/verify/scan)"
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)

    sp = store_sub.add_parser(
        "ingest", help="build a store from synthetic days or Table-II CSVs"
    )
    sp.add_argument("--root", required=True, metavar="DIR",
                    help="store root directory (created if missing)")
    _add_market_args(sp, symbols=8)
    sp.add_argument("--days", type=int, default=3,
                    help="synthetic days to ingest (ignored with --from-csv)")
    sp.add_argument("--shards", type=int, default=4,
                    help="symbol shards per day")
    sp.add_argument("--block-rows", type=int, default=65_536,
                    help="rows per checksummed block")
    sp.add_argument("--from-csv", nargs="+", metavar="CSV", default=None,
                    help="ingest these Table-II CSV files (one day each) "
                    "instead of synthesising")
    sp.add_argument("--obs-json", metavar="PATH", default=None,
                    help="write the ingest's observability report here")

    sp = store_sub.add_parser("ls", help="list the store's days and stats")
    sp.add_argument("--root", required=True, metavar="DIR")

    sp = store_sub.add_parser(
        "verify", help="checksum every segment block against the manifest"
    )
    sp.add_argument("--root", required=True, metavar="DIR")
    sp.add_argument("--deep", action="store_true",
                    help="also regenerate the synthetic source and compare "
                    "every stored day bitwise")

    sp = store_sub.add_parser(
        "scan", help="columnar scan with predicate pushdown"
    )
    sp.add_argument("--root", required=True, metavar="DIR")
    sp.add_argument("--days", type=int, nargs="+", default=None,
                    help="restrict to these day indices")
    sp.add_argument("--select", metavar="SYM,SYM", default=None,
                    help="comma-separated symbol subset")
    sp.add_argument("--t-min", type=float, default=None,
                    help="inclusive lower time bound (seconds from open)")
    sp.add_argument("--t-max", type=float, default=None,
                    help="exclusive upper time bound (seconds from open)")
    sp.add_argument("--columns", metavar="COL,COL", default=None,
                    help="comma-separated columns (default: quote fields)")
    sp.add_argument("--cached", action="store_true",
                    help="read through the CRC-verified block cache")
    sp.add_argument("--obs-json", metavar="PATH", default=None,
                    help="write the scan's observability report here")

    p = sub.add_parser("screen", help="candidate-pair screening funnel")
    _add_market_args(p, symbols=12)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--measure", choices=("pearson", "maronna", "combined"),
                   default="pearson")

    p = sub.add_parser(
        "serve", help="multi-tenant HTTP/JSON session server (stdlib-only)"
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8972,
                   help="bind port; 0 picks an ephemeral port")
    p.add_argument("--token", default=None,
                   help="bearer token clients must send; generated and "
                   "printed when omitted")
    p.add_argument("--store-root", metavar="DIR", default=None,
                   help="attach this tick store for /store/* routes")
    p.add_argument("--max-sessions", type=int, default=8,
                   help="concurrent live sessions before submits 429")
    p.add_argument("--retain", type=int, default=64,
                   help="total sessions kept before terminal ones are pruned")
    p.add_argument("--flight-root", metavar="DIR", default=None,
                   help="write per-session flight-recorder dumps under here")
    return parser


_COMMANDS = {
    "table1": _cmd_table1,
    "taq-sample": _cmd_taq_sample,
    "sweep": _cmd_sweep,
    "chaos": _cmd_chaos,
    "elastic": _cmd_elastic,
    "pipeline": _cmd_pipeline,
    "top": _cmd_top,
    "report": _cmd_report,
    "screen": _cmd_screen,
    "stats": _cmd_stats,
    "lint": _cmd_lint,
    "store": _cmd_store,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        import logging as _logging

        from repro.util.logging import configure

        configure(getattr(_logging, args.log_level.upper()))
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
