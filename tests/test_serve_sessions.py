"""SessionManager lifecycle: submit/pause/resume/kill, audit, isolation.

The edge cases here are the serving layer's contract with its tenants:
a kill lands even while the session is parked in pause, a re-used id is
a 409 not a clobber, a command against a dead session returns
immediately (409) instead of hanging, the audit log survives a session
crash (and the flight-recorder dump is still on disk), and — the
multi-tenancy headline — one killed or paused session never blocks
another tenant's work.
"""

import os
import time

import pytest

from repro.serve import (
    CommandBacklog,
    DuplicateSession,
    ManagerFull,
    Session,
    SessionDead,
    SessionManager,
    BadRequest,
    UnknownSession,
    validate_spec,
)

#: Smallest legal live session: 1200 s -> 40 intervals, 2 epochs.
FIG1_SPEC = {"seconds": 1200, "ranks": 2, "checkpoint_every": 20}

#: A long session (16 epochs) that stays alive while tests poke at it.
SLOW_SPEC = {"seconds": 4800, "ranks": 2, "checkpoint_every": 10}


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def wait_terminal(manager, sid, timeout=60.0):
    assert wait_for(
        lambda: manager.get(sid).status()["state"]
        in ("done", "failed", "killed"),
        timeout,
    ), f"session {sid} never terminated: {manager.get(sid).status()}"
    return manager.get(sid).status()


@pytest.fixture()
def manager():
    m = SessionManager(max_live=4, retain=16)
    yield m
    m.kill_all()


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(BadRequest, match="unknown session kind"):
            validate_spec("alpha", {})

    def test_unknown_key_names_allowed(self):
        with pytest.raises(BadRequest, match="allowed keys"):
            validate_spec("figure1", {"symbolz": 4})

    def test_type_error_is_pointed(self):
        with pytest.raises(BadRequest, match="'symbols' must be int"):
            validate_spec("figure1", {"symbols": "four"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(BadRequest, match="'symbols' must be int"):
            validate_spec("figure1", {"symbols": True})

    def test_bounds_checked_both_ways(self):
        with pytest.raises(BadRequest, match="must be >= 1200"):
            validate_spec("figure1", {"seconds": 60})
        with pytest.raises(BadRequest, match="must be <= 8"):
            validate_spec("figure1", {"ranks": 64})

    def test_defaults_fill_in(self):
        spec = validate_spec("backtest", None)
        assert spec["symbols"] == 6 and spec["days"] == 2
        assert spec["store_root"] is None

    def test_unknown_fault_plan_rejected(self):
        with pytest.raises(BadRequest, match="no such plan"):
            validate_spec("figure1", {"fault_plan": "meteor-strike"})

    def test_missing_store_root_rejected(self):
        with pytest.raises(BadRequest, match="not a directory"):
            validate_spec("backtest", {"store_root": "/no/such/store"})

    def test_bad_session_id_rejected(self, manager):
        with pytest.raises(BadRequest, match="bad session id"):
            manager.submit("no spaces!", "figure1", None, "u")


class TestLifecycle:
    def test_figure1_runs_to_done(self, manager):
        status = manager.submit("f1", "figure1", FIG1_SPEC, "alice")
        assert status["state"] in ("pending", "running")
        final = wait_terminal(manager, "f1")
        assert final["state"] == "done", final["error"]
        assert final["summary"]["bars"] == 40
        assert final["summary"]["checkpoints"] == 1
        assert final["progress"]["gates"] >= 2

    def test_backtest_runs_to_done(self, manager):
        manager.submit(
            "b1", "backtest", {"days": 1, "symbols": 4, "levels": 1}, "bob"
        )
        final = wait_terminal(manager, "b1")
        assert final["state"] == "done", final["error"]
        assert final["summary"] == {
            "days": 1, "pairs": 6, "param_sets": 1,
            "trades": final["summary"]["trades"],
        }

    def test_double_submit_is_409_even_after_done(self, manager):
        manager.submit("dup", "figure1", FIG1_SPEC, "alice")
        with pytest.raises(DuplicateSession):
            manager.submit("dup", "figure1", FIG1_SPEC, "mallory")
        wait_terminal(manager, "dup")
        with pytest.raises(DuplicateSession):
            manager.submit("dup", "backtest", None, "alice")

    def test_pause_then_kill_lands_while_paused(self, manager):
        manager.submit("pk", "figure1", SLOW_SPEC, "alice")
        manager.command("pk", "pause", "alice")
        assert wait_for(lambda: manager.get("pk").status()["state"] == "paused")
        # The worker is parked at a gate; the kill must still land.
        manager.command("pk", "kill", "ops")
        final = wait_terminal(manager, "pk", timeout=10.0)
        assert final["state"] == "killed"

    def test_pause_resume_roundtrip(self, manager):
        manager.submit("pr", "figure1", SLOW_SPEC, "alice")
        manager.command("pr", "pause", "alice")
        assert wait_for(lambda: manager.get("pr").status()["state"] == "paused")
        manager.command("pr", "resume", "alice")
        assert wait_for(
            lambda: manager.get("pr").status()["state"] == "running"
        )
        manager.command("pr", "kill", "alice")
        wait_terminal(manager, "pr", timeout=10.0)

    def test_command_on_dead_session_is_409_not_a_hang(self, manager):
        manager.submit("dead", "figure1", FIG1_SPEC, "alice")
        manager.command("dead", "kill", "alice")
        wait_terminal(manager, "dead", timeout=10.0)
        t0 = time.monotonic()
        with pytest.raises(SessionDead):
            manager.command("dead", "pause", "alice")
        assert time.monotonic() - t0 < 1.0

    def test_unknown_session_404(self, manager):
        with pytest.raises(UnknownSession):
            manager.get("ghost")
        with pytest.raises(UnknownSession):
            manager.command("ghost", "kill", "alice")

    def test_unknown_command_400(self, manager):
        manager.submit("cmd", "figure1", FIG1_SPEC, "alice")
        with pytest.raises(BadRequest, match="unknown command"):
            manager.command("cmd", "explode", "alice")


class TestIsolation:
    def test_killed_session_never_blocks_another_tenant(self, manager):
        """The acceptance headline: tenant B completes while A is wedged."""
        manager.submit("a", "figure1", SLOW_SPEC, "alice")
        manager.command("a", "pause", "alice")
        assert wait_for(lambda: manager.get("a").status()["state"] == "paused")
        # With A parked, B must submit, run and finish unimpeded.
        manager.submit("b", "figure1", FIG1_SPEC, "bob")
        final_b = wait_terminal(manager, "b")
        assert final_b["state"] == "done", final_b["error"]
        assert manager.get("a").status()["state"] == "paused"
        # And every control-plane read against A stays fast.
        t0 = time.monotonic()
        manager.get("a").status()
        manager.get("a").audit_entries()
        manager.list_sessions()
        assert time.monotonic() - t0 < 1.0
        manager.command("a", "kill", "ops")
        assert wait_terminal(manager, "a", timeout=10.0)["state"] == "killed"

    def test_manager_full_is_429(self):
        m = SessionManager(max_live=1, retain=8)
        try:
            m.submit("one", "figure1", SLOW_SPEC, "alice")
            with pytest.raises(ManagerFull):
                m.submit("two", "figure1", FIG1_SPEC, "bob")
        finally:
            m.kill_all()

    def test_command_backlog_is_429(self):
        # A pending (never-started) session drains nothing, so the
        # bounded queue fills and the next command rejects immediately.
        s = Session("s", "figure1", validate_spec("figure1", None), "u",
                    command_slots=2)
        s.submit_command("pause", "u")
        s.submit_command("resume", "u")
        with pytest.raises(CommandBacklog):
            s.submit_command("kill", "u")
        audit = s.audit_entries()
        assert [e["detail"] for e in audit["entries"]] == [
            "queued", "queued", "rejected: command queue full",
        ]


class TestAudit:
    def test_audit_orders_actor_and_op(self, manager):
        manager.submit("aud", "figure1", FIG1_SPEC, "alice")
        manager.command("aud", "pause", "alice")
        manager.command("aud", "resume", "ops")
        manager.command("aud", "kill", "security")
        wait_terminal(manager, "aud", timeout=15.0)
        entries = manager.get("aud").audit_entries()["entries"]
        pairs = [(e["actor"], e["op"]) for e in entries]
        assert pairs[0] == ("alice", "submit")
        assert ("ops", "resume") in pairs
        assert ("security", "kill") in pairs
        assert pairs[-1] == ("worker", "exit")
        seqs = [e["seq"] for e in entries]
        assert seqs == sorted(seqs)

    def test_audit_survives_crash_and_flight_dump_written(self, tmp_path):
        m = SessionManager(max_live=2, retain=8, flight_root=str(tmp_path))
        try:
            # crash-mid with a zero restart budget: the session dies.
            m.submit(
                "boom", "figure1",
                dict(FIG1_SPEC, fault_plan="crash-mid", max_restarts=0,
                     timeout=2),
                "alice",
            )
            final = wait_terminal(m, "boom")
            assert final["state"] == "failed"
            assert "ChaosUnrecoverable" in final["error"]
            entries = m.get("boom").audit_entries()["entries"]
            assert entries[0]["op"] == "submit"
            assert entries[-1]["op"] == "exit"
            assert entries[-1]["detail"].startswith("failed:")
            dumps = os.listdir(tmp_path / "boom")
            assert any(f.endswith(".jsonl") for f in dumps), dumps
        finally:
            m.kill_all()

    def test_audit_ring_is_bounded_but_sequence_is_not(self):
        s = Session("s", "backtest", validate_spec("backtest", None), "u",
                    audit_capacity=4)
        for i in range(10):
            s.record_audit("u", f"op{i}")
        audit = s.audit_entries()
        assert len(audit["entries"]) == 4
        assert audit["total"] == 10 and audit["dropped"] == 6
        assert [e["seq"] for e in audit["entries"]] == [6, 7, 8, 9]


class TestQueries:
    def test_positions_and_signals_read_checkpoints(self, manager):
        from repro.marketminer.session import run_figure1_session

        manager.submit(
            "q", "figure1", {**FIG1_SPEC, "checkpoint_every": 10}, "alice"
        )
        final = wait_terminal(manager, "q")
        assert final["state"] == "done", final["error"]
        session = manager.get("q")
        positions = session.positions()
        assert positions["epoch"] == 2
        assert positions["trades"] >= 0
        assert len(positions["positions"]) == 4
        # Each checkpointed open row is the entry of a trade its cell
        # completes later in the (deterministic) session.
        trades = run_figure1_session(session._build_workflow(), size=2)[
            "pair_trading"
        ]["trades"]
        for row in positions["positions"]:
            assert len(row["pair"]) == 2 and row["n_long"] > 0
            (trade,) = [
                t for t in trades[(tuple(row["pair"]), row["param_set"])]
                if t.entry_s == row["entry_s"]
            ]
            assert (trade.long_leg, trade.n_long, trade.n_short) == (
                row["long_leg"], row["n_long"], row["n_short"]
            )
        signals = session.signals(limit=3)
        assert len(signals["signals"]) <= 3
        for row in signals["signals"]:
            assert -1.0 <= row["corr"] <= 1.0

    def test_positions_reject_backtest_sessions(self, manager):
        manager.submit("bt", "backtest", {"days": 1, "symbols": 4}, "bob")
        wait_terminal(manager, "bt")
        with pytest.raises(BadRequest, match="only for kind 'figure1'"):
            manager.get("bt").positions()
        with pytest.raises(BadRequest, match="only for kind 'figure1'"):
            manager.get("bt").signals()

    def test_terminal_sessions_pruned_oldest_first(self):
        m = SessionManager(max_live=2, retain=3)
        try:
            for i in range(4):
                m.submit(f"s{i}", "backtest",
                         {"days": 1, "symbols": 3, "levels": 1}, "u")
                wait_terminal(m, f"s{i}")
            ids = {s["id"] for s in m.list_sessions()}
            assert len(ids) <= 3 and "s3" in ids and "s0" not in ids
        finally:
            m.kill_all()


class TestWatchlists:
    def test_roundtrip_and_caps(self, manager):
        manager.set_watchlist("alice", ["XOM", "CVX"])
        assert manager.watchlist("alice")["symbols"] == ["XOM", "CVX"]
        assert manager.watchlist("nobody")["symbols"] == []
        with pytest.raises(BadRequest, match="ticker strings"):
            manager.set_watchlist("alice", ["", "CVX"])
        with pytest.raises(BadRequest, match="ticker strings"):
            manager.set_watchlist("alice", "XOM")

    def test_user_cap_is_429_but_updates_pass(self):
        m = SessionManager(max_live=2, retain=8, watchlist_users=2)
        m.set_watchlist("a", ["XOM"])
        m.set_watchlist("b", ["CVX"])
        with pytest.raises(ManagerFull):
            m.set_watchlist("c", ["BP"])
        m.set_watchlist("a", ["BP"])  # replacing an entry is always fine
        assert m.watchlist("a")["symbols"] == ["BP"]

    def test_item_cap(self, manager):
        with pytest.raises(BadRequest, match="at most"):
            manager.set_watchlist("alice", ["S"] * 1000)


class TestResize:
    """The elastic pool over HTTP: the resize ladder, surfacing, audit.

    A resize queues at the manager, lands at the next ``on_gate`` epoch
    boundary as a :class:`SessionControl` request, and is applied by the
    supervisor's epoch loop — the ``resize-applied`` audit entry plus the
    ``pool`` status block are the tenant-visible proof.
    """

    def test_resize_requires_integer_target(self, manager):
        manager.submit("rz0", "figure1", SLOW_SPEC, "alice")
        with pytest.raises(BadRequest, match="integer 'target'"):
            manager.command("rz0", "resize", "alice")
        with pytest.raises(BadRequest, match="integer 'target'"):
            manager.command("rz0", "resize", "alice", target=True)
        manager.command("rz0", "kill", "alice")
        wait_terminal(manager, "rz0", timeout=10.0)

    def test_resize_target_bounds(self, manager):
        manager.submit("rz1", "figure1", SLOW_SPEC, "alice")
        with pytest.raises(BadRequest, match=r"must be in 1\.\.8, got 0"):
            manager.command("rz1", "resize", "alice", target=0)
        with pytest.raises(BadRequest, match=r"must be in 1\.\.8, got 99"):
            manager.command("rz1", "resize", "alice", target=99)
        manager.command("rz1", "kill", "alice")
        wait_terminal(manager, "rz1", timeout=10.0)

    def test_target_on_non_resize_command_rejected(self, manager):
        manager.submit("rz2", "figure1", SLOW_SPEC, "alice")
        with pytest.raises(BadRequest, match="takes no 'target'"):
            manager.command("rz2", "pause", "alice", target=3)
        manager.command("rz2", "kill", "alice")
        wait_terminal(manager, "rz2", timeout=10.0)

    def test_resize_unsupported_for_backtest(self, manager):
        from repro.serve import CommandUnsupported

        manager.submit(
            "rzb", "backtest", {"days": 1, "symbols": 4, "levels": 1}, "bob"
        )
        with pytest.raises(CommandUnsupported, match="backtest"):
            manager.command("rzb", "resize", "bob", target=3)
        wait_terminal(manager, "rzb")

    def test_resize_of_a_finished_backtest_is_still_unsupported(self, manager):
        """Kind is checked before liveness, so a backtest that finished
        before the request arrived gets the same answer as a running one."""
        from repro.serve import CommandUnsupported

        manager.submit(
            "rzf", "backtest", {"days": 1, "symbols": 4, "levels": 1}, "bob"
        )
        wait_terminal(manager, "rzf")
        with pytest.raises(CommandUnsupported, match="backtest"):
            manager.command("rzf", "resize", "bob", target=3)

    def test_second_resize_before_boundary_is_409(self, manager):
        from repro.serve import ResizePending

        manager.submit("rzp", "figure1", SLOW_SPEC, "alice")
        # Plant the pending request directly (deterministic: no race
        # against the gate consuming a queued command first).
        manager.get("rzp").control.request_resize(4)
        with pytest.raises(ResizePending, match="resize to 4 pending"):
            manager.command("rzp", "resize", "alice", target=3)
        manager.command("rzp", "kill", "alice")
        wait_terminal(manager, "rzp", timeout=10.0)

    def test_second_resize_while_first_is_still_queued_is_409(self, manager):
        """Two ``resize`` commands through the manager: the first may
        still sit in the command queue (not yet drained into the control
        handle), and the second must not clobber it."""
        from repro.serve import ResizePending

        manager.submit("rzq", "figure1", SLOW_SPEC, "alice")
        # Park the session so no epoch boundary can consume the first
        # resize between the two commands.
        manager.command("rzq", "pause", "alice")
        assert wait_for(
            lambda: manager.get("rzq").status()["state"] == "paused"
        )
        status = manager.command("rzq", "resize", "alice", target=4)
        assert status["pool"]["pending_resize"] == 4
        with pytest.raises(ResizePending, match="resize to 4 pending"):
            manager.command("rzq", "resize", "alice", target=3)
        manager.command("rzq", "resume", "alice")
        assert wait_for(
            lambda: manager.get("rzq").status()["pool"]["resizes"]
        ), manager.get("rzq").status()
        status = manager.get("rzq").status()
        assert [r[1:] for r in status["pool"]["resizes"]] == [(2, 4)]
        assert status["pool"]["pending_resize"] is None
        # The slot is free again once the boundary applied the first.
        manager.command("rzq", "resize", "alice", target=3)
        manager.command("rzq", "kill", "alice")
        wait_terminal(manager, "rzq", timeout=10.0)

    def test_resize_on_dead_session_is_409(self, manager):
        manager.submit("rzd", "figure1", FIG1_SPEC, "alice")
        manager.command("rzd", "kill", "alice")
        wait_terminal(manager, "rzd", timeout=10.0)
        with pytest.raises(SessionDead):
            manager.command("rzd", "resize", "alice", target=3)

    def test_applied_resize_surfaces_in_status_audit_and_summary(
        self, manager
    ):
        manager.submit("rza", "figure1", SLOW_SPEC, "alice")
        manager.command("rza", "resize", "alice", target=3)
        # The supervisor applies the request at the next epoch boundary.
        assert wait_for(
            lambda: manager.get("rza").status()["pool"]["resizes"]
        ), manager.get("rza").status()
        status = manager.get("rza").status()
        assert status["pool"]["size"] == 3
        assert status["pool"]["pending_resize"] is None
        assert status["pool"]["resizes"][-1][1:] == (2, 3)

        ops = [(e["actor"], e["op"], e["detail"])
               for e in manager.get("rza").audit_entries()["entries"]]
        assert ("alice", "resize", "queued target=3") in ops
        assert ("alice", "resize", "applied target=3") in ops
        assert any(
            actor == "supervisor" and op == "resize-applied"
            and detail.endswith("2->3")
            for actor, op, detail in ops
        )

        telem = manager.telemetry()["rza"]
        assert telem["pool_size"] == 3
        assert telem["resizes"] == 1

        final = wait_terminal(manager, "rza")
        assert final["state"] == "done", final["error"]
        assert final["summary"]["pool_sizes"][-1] == 3
        assert final["summary"]["resizes"][-1][1:] == [2, 3]

    def test_kill_during_pending_resize_keeps_audit_consistent(
        self, manager
    ):
        """A kill racing a queued resize must not forge a resize-applied."""
        manager.submit("rzk", "figure1", SLOW_SPEC, "alice")
        manager.command("rzk", "pause", "alice")
        assert wait_for(
            lambda: manager.get("rzk").status()["state"] == "paused"
        )
        # Queue the resize while paused (it can't land at a gate), then
        # kill: the session dies with the resize still queued/pending.
        manager.command("rzk", "resize", "alice", target=4)
        manager.command("rzk", "kill", "ops")
        final = wait_terminal(manager, "rzk", timeout=10.0)
        assert final["state"] == "killed"
        ops = [(e["op"], e["detail"]) for e in manager.get("rzk").audit_entries()["entries"]]
        assert ("resize", "queued target=4") in ops
        assert not any(op == "resize-applied" for op, _ in ops)
        assert final["pool"]["resizes"] == []
