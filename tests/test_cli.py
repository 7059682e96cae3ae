"""Tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

# Small/fast argument sets shared by the command tests.
FAST = ["--symbols", "4", "--seconds", "2400", "--seed", "7"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.symbols == 8
        assert args.levels == 4
        assert args.ranks == 2
        assert args.obs_json is None
        assert args.log_level is None

    def test_log_level_choices(self):
        args = build_parser().parse_args(["--log-level", "debug", "table1"])
        assert args.log_level == "debug"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "trace", "table1"])


class TestTable1:
    def test_prints_grid(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "42 parameter sets" in out
        assert "Ctype" in out


class TestTaqSample:
    def test_prints_rows(self, capsys):
        assert main(["taq-sample", *FAST, "--rows", "5"]) == 0
        out = capsys.readouterr().out
        assert "Bid Price" in out
        assert "09:30:" in out


class TestSweep:
    def test_prints_all_tables(self, capsys):
        assert main(
            ["sweep", *FAST, "--days", "1", "--levels", "1", "--ranks", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Table IV" in out
        assert "Table V" in out
        assert "Sharpe Ratio" in out

    def test_corr_backend_flag(self, capsys):
        """There is one correlation path; the flag that chose is gone."""
        assert not hasattr(build_parser().parse_args(["sweep"]), "corr_backend")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--corr-backend", "batch"])
        assert exc.value.code == 2
        assert "--corr-backend" in capsys.readouterr().err

    def test_engine_flag(self, capsys):
        """The sweep has one engine; a one-rank run is ``--ranks 1``
        (``test_prints_all_tables``), not a second route."""
        assert not hasattr(build_parser().parse_args(["sweep"]), "engine")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--engine", "sequential"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestPipeline:
    def test_streams_session(self, capsys):
        assert main(["pipeline", *FAST, "--ranks", "2"]) == 0
        out = capsys.readouterr().out
        assert "Workflow 'figure1'" in out
        assert "bars" in out
        assert "rank 0:" in out

    def test_multi_engine(self, capsys):
        assert main(["pipeline", *FAST, "--ranks", "2", "--engines", "2"]) == 0
        out = capsys.readouterr().out
        assert "correlation_0" in out


class TestObservability:
    def test_pipeline_obs_json_and_stats(self, capsys, tmp_path):
        path = tmp_path / "obs.json"
        assert main(
            ["pipeline", *FAST, "--ranks", "2", "--obs-json", str(path)]
        ) == 0
        assert f"written to {path}" in capsys.readouterr().out
        assert path.exists()

        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro.obs/v1" in out
        assert "mpi.sent.messages" in out
        assert "component.pair_trading.on_message.seconds" in out
        assert "span tree:" in out

    def test_sweep_obs_json(self, capsys, tmp_path):
        path = tmp_path / "sweep-obs.json"
        assert main(
            ["sweep", *FAST, "--days", "1", "--levels", "1",
             "--obs-json", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        assert "backtest.pair_day.seconds" in capsys.readouterr().out

    def test_stats_rejects_foreign_json(self, tmp_path, capsys):
        path = tmp_path / "not-obs.json"
        path.write_text('{"schema": "nope"}')
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "stats:" in err
        assert "repro.obs" in err

    def test_stats_rejects_non_json(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        assert main(["stats", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_stats_rejects_structural_mismatch(self, tmp_path, capsys):
        path = tmp_path / "hollow.json"
        path.write_text('{"schema": "repro.obs/v1", "metrics": [], '
                        '"ranks": {}, "spans": []}')
        assert main(["stats", str(path)]) == 2
        assert "invalid repro.obs/v1 report" in capsys.readouterr().err

    def test_stats_missing_file(self, capsys):
        assert main(["stats", "does/not/exist.json"]) == 2
        assert "no such report" in capsys.readouterr().err

    def test_log_level_configures_repro_logger(self):
        import logging

        assert main(["--log-level", "debug", "table1"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        logging.getLogger("repro").setLevel(logging.INFO)


class TestScreen:
    def test_prints_candidates(self, capsys):
        assert main(["screen", *FAST, "--threshold", "0.2", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "candidates" in out
        assert "rho=" in out

    def test_measure_choice(self, capsys):
        assert main(
            ["screen", *FAST, "--threshold", "0.2", "--measure", "maronna"]
        ) == 0
        assert "Clusters" in capsys.readouterr().out


class TestChaos:
    def test_list_plans(self, capsys):
        assert main(["chaos", "--list-plans"]) == 0
        out = capsys.readouterr().out
        for name in ("dup", "drop-dup", "crash-mid", "stall", "delay"):
            assert name in out

    def test_plan_or_list_required(self, capsys):
        assert main(["chaos", *FAST]) == 2
        assert "--plan" in capsys.readouterr().err

    def test_figure1_dup_plan_recovers(self, capsys):
        assert (
            main(["chaos", *FAST, "--plan", "dup", "--timeout", "10"]) == 0
        )
        out = capsys.readouterr().out
        assert "plan 'dup' on figure1" in out
        assert "identical to fault-free run: True" in out

    def test_sweep_crash_plan_recovers(self, capsys):
        assert (
            main(
                [
                    "chaos", *FAST, "--target", "sweep",
                    "--plan", "crash-mid", "--timeout", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "restart(s)" in out
        assert "identical to fault-free run: True" in out

    def test_figure1_flight_dump(self, capsys, tmp_path):
        dump = tmp_path / "flight"
        assert main(
            ["chaos", *FAST, "--plan", "crash-mid", "--ranks", "2",
             "--flight-dump", str(dump), "--timeout", "2"]
        ) == 0
        out = capsys.readouterr().out
        # scripts/check.sh's chaos stage greps "^  restart epoch " as its
        # vacuity check and takes the verdict from the exit status.
        assert re.search(
            r"^  restart epoch \d+ attempt \d+: .*InjectedCrash", out, re.M
        )
        assert re.search(r"^  1 restart\(s\), ", out, re.M)
        assert "recovered results identical to fault-free run: True" in out
        assert "flight dump(s)" in out
        files = sorted(dump.glob("rank*-attempt*.jsonl"))
        assert files, "chaos --flight-dump produced no dumps"
        from repro.obs.live import load_flight_dump

        header, events = load_flight_dump(files[0])
        assert header["schema"] == "repro.flight/v1"
        assert events

    def test_sweep_target_rejects_flight_dump(self, capsys):
        assert main(
            ["chaos", *FAST, "--plan", "crash-mid", "--target", "sweep",
             "--flight-dump", "somewhere"]
        ) == 2
        assert "figure1" in capsys.readouterr().err


class TestElastic:
    # The session scripts/check.sh's elastic stage runs.
    SMOKE = ["--symbols", "4", "--seconds", "1462", "--seed", "33",
             "--timeout", "10"]

    def test_resize_plan_compared_to_fixed_size(self, capsys):
        assert main(
            ["elastic", *self.SMOKE, "--resize", "1:4", "--resize", "2:2",
             "--compare-fixed", "2"]
        ) == 0
        out = capsys.readouterr().out
        # check.sh greps "^elastic session: pool 2->4->2," as its
        # vacuity check and takes the verdict from the exit status.
        assert re.search(
            r"^elastic session: pool 2->4->2, 2 resize\(s\) applied, ",
            out, re.M,
        )
        assert "  epoch 1: 2 -> 4 ranks" in out
        assert "  epoch 2: 4 -> 2 ranks" in out
        assert (
            "bitwise vs fixed size 2: results=True domain_counters=True"
            in out
        )

    def test_bad_resize_spec_is_exit_2(self, capsys):
        assert main(["elastic", *self.SMOKE, "--resize", "four"]) == 2
        assert "expected EPOCH:SIZE" in capsys.readouterr().err


class TestTop:
    def test_pipeline_renders_live_frames(self, capsys):
        # capsys stdout is not a tty, so frames append (plain mode).
        assert main(["top", *FAST, "--ranks", "2", "--refresh", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "repro top — uptime" in out
        assert "sent/s" in out
        assert "session complete" in out

    def test_chaos_target_reports_recovery(self, capsys):
        assert main(
            ["top", *FAST, "--ranks", "2", "--target", "chaos",
             "--refresh", "0.1", "--timeout", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "session complete" in out
        assert "restart(s)" in out

    def test_rejects_bad_health_rule(self, capsys):
        assert main(["top", *FAST, "--health", "nonsense rule"]) == 2
        assert "bad --health rule" in capsys.readouterr().err

    def test_obs_json_round_trips_through_stats(self, capsys, tmp_path):
        path = tmp_path / "top-obs.json"
        assert main(
            ["top", *FAST, "--ranks", "2", "--refresh", "0.1",
             "--obs-json", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        assert "mpi.sent.messages" in capsys.readouterr().out


class TestReport:
    def test_prints_full_report(self, capsys):
        assert main(
            ["report", *FAST, "--days", "2", "--levels", "1",
             "--bootstrap", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Significance" in out
        assert "Walk-forward" in out


class TestLint:
    def test_clean_repo_and_spec_exit_zero(self, capsys):
        assert main(["lint", *FAST, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_strict_flag_parsed(self):
        args = build_parser().parse_args(["lint", "--strict"])
        assert args.strict is True
        assert args.skip_graph is False
        assert args.ranks == 2

    def test_violating_tree_fails(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "class Buf(Component):\n"
            "    def __init__(self):\n"
            "        self.rows = []\n"
        )
        assert main(
            ["lint", *FAST, "--skip-graph", "--root", str(tmp_path)]
        ) == 1
        out = capsys.readouterr().out
        assert "repo.stateful-snapshot" in out

    def test_warning_only_fails_under_strict(self, capsys):
        # More ranks than components: graph.idle-ranks, a warning.
        argv = ["lint", *FAST, "--skip-repo", "--ranks", "16"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--strict"]) == 1
        assert "graph.idle-ranks" in capsys.readouterr().out

    def test_missing_root_is_usage_error(self, capsys):
        # Exit 2 before any pass runs, whichever passes were asked for.
        for skip in ([], ["--skip-repo"], ["--skip-graph"]):
            argv = ["lint", *FAST, *skip, "--root", "/no/such/dir"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "/no/such/dir" in captured.err

    def test_strict_verdict_is_the_report_from_any_cwd(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro

        root = str(Path(repro.__file__).resolve().parent)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", *FAST, "--strict", "--root", root]) == 0
        assert capsys.readouterr().out.startswith("0 diagnostic(s)")


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8972
        assert args.token is None and args.store_root is None
        assert args.max_sessions == 8 and args.retain == 64
        assert args.flight_root is None

    def test_all_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "--host", "0.0.0.0", "--port", "0",
            "--token", "s3cret", "--store-root", "/tmp/store",
            "--max-sessions", "2", "--retain", "8",
            "--flight-root", "/tmp/flight",
        ])
        assert args.port == 0 and args.token == "s3cret"
        assert args.max_sessions == 2 and args.flight_root == "/tmp/flight"

    def test_serve_is_wired_into_main(self):
        from repro.cli import _COMMANDS

        assert "serve" in _COMMANDS
