"""Recovery and determinism suite for the self-healing runtime.

Asserts the headline invariant — a supervised Figure-1 session recovers
from any recoverable seeded fault plan with results bitwise-identical to
a fault-free run — plus the surrounding guarantees: checkpoint/restart
is invisible when nothing fails, duplicated envelopes deduplicate live,
each rank's crash is survivable individually, the chaos log is
deterministic (same plan ⇒ same log, on either backend), the process
backend detects dead and stalled ranks, and the degraded-mode policies
(stale correlation service, strategy flatten) behave as specified.
"""

import os
import time

import numpy as np
import pytest

from repro.faults import (
    PLAN_NAMES,
    ChaosUnrecoverable,
    DegradePolicy,
    FaultPlan,
    RankCrash,
    StaleCorr,
    named_plan,
    run_supervised_session,
    session_results_equal,
)
from repro.marketminer.component import Context
from repro.marketminer.components.correlation import CorrelationEngineComponent
from repro.marketminer.components.strategy import PairTradingComponent
from repro.marketminer.session import build_figure1_workflow, run_figure1_session
from repro.mpi.procs import ProcessBackend, RemoteRankError
from repro.obs import Obs
from repro.strategy.engine import TradeReason
from repro.strategy.params import StrategyParams
from repro.strategy.positions import PairPosition
from repro.taq.synthetic import (
    SyntheticMarket,
    SyntheticMarketConfig,
    default_universe,
)
from repro.util.timeutil import TimeGrid

SECONDS = 23_400 // 16
PARAMS = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=4, d=0.002)
PAIRS = [(0, 1), (2, 3)]


def build():
    """Zero-argument Figure-1 workflow factory (fresh market per call)."""
    market = SyntheticMarket(
        default_universe(4),
        SyntheticMarketConfig(trading_seconds=SECONDS, quote_rate=0.9),
        seed=33,
    )
    grid_time = TimeGrid(30, trading_seconds=SECONDS)
    return build_figure1_workflow(market, grid_time, PAIRS, [PARAMS])


@pytest.fixture(scope="module")
def clean_results():
    return run_figure1_session(build(), size=3, default_timeout=10.0)


class TestSupervisedBaseline:
    def test_supervision_is_invisible_without_faults(self, clean_results):
        sup = run_supervised_session(
            build, size=3, backend_options={"default_timeout": 10.0}
        )
        assert sup.restarts == 0
        assert sup.checkpoints == 0
        assert session_results_equal(sup.results, clean_results)

    def test_checkpointing_is_invisible_without_faults(self, clean_results):
        sup = run_supervised_session(
            build,
            size=3,
            checkpoint_every=20,
            backend_options={"default_timeout": 10.0},
        )
        assert sup.restarts == 0
        assert sup.checkpoints >= 1
        assert session_results_equal(sup.results, clean_results)
        # One "run" log entry per epoch, all clean.
        runs = [entry for entry in sup.log if entry[0] == "run"]
        assert len(runs) == sup.checkpoints + 1


class TestLiveDedup:
    def test_duplicate_plan_deduplicates_in_flight(self, clean_results):
        results = run_figure1_session(
            build(),
            size=3,
            fault_plan=named_plan("dup"),
            default_timeout=10.0,
        )
        faults = results["_faults"]
        events = [event for rank in faults.values() for event in rank]
        assert any(event[0] == "duplicate" for event in events)
        assert any(event[0] == "dedup" for event in events)
        assert session_results_equal(results, clean_results)


class TestPlanRecovery:
    @pytest.mark.parametrize(
        "name,min_restarts",
        [
            ("drop-dup", 1),
            ("crash-mid", 1),
            ("delay", 1),
            ("stall", 0),  # 0.5s stall < 2s deadline: absorbed, no restart
        ],
    )
    def test_named_plan_recovers_bitwise(
        self, name, min_restarts, clean_results
    ):
        plan = named_plan(name, size=3, stall_seconds=0.5)
        sup = run_supervised_session(
            build,
            size=3,
            plan=plan,
            checkpoint_every=20,
            backend_options={"default_timeout": 2.0},
        )
        assert sup.restarts >= min_restarts
        assert session_results_equal(sup.results, clean_results)

    def test_stall_past_deadline_restarts_and_recovers(self, clean_results):
        # A 3s stall against a 1s recv deadline cannot be absorbed: peers
        # time out, the epoch restarts, and the attempt-scoped stall does
        # not re-fire on the retry.
        plan = named_plan("stall", size=3, stall_seconds=3.0)
        sup = run_supervised_session(
            build,
            size=3,
            plan=plan,
            checkpoint_every=20,
            backend_options={"default_timeout": 1.0},
        )
        assert sup.restarts >= 1
        assert session_results_equal(sup.results, clean_results)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_each_rank_crash_recovers(self, rank, clean_results):
        plan = FaultPlan(
            name=f"crash-rank{rank}",
            crashes=(RankCrash(rank=rank, at_op=30),),
        )
        sup = run_supervised_session(
            build,
            size=3,
            plan=plan,
            checkpoint_every=20,
            backend_options={"default_timeout": 2.0},
        )
        assert sup.restarts >= 1
        assert session_results_equal(sup.results, clean_results)

    def test_exhausted_restart_budget_raises(self):
        # The same rank crashes on every attempt: never recoverable.
        plan = FaultPlan(
            name="always-crash",
            crashes=tuple(
                RankCrash(rank=0, at_op=5, attempt=a) for a in range(4)
            ),
        )
        with pytest.raises(ChaosUnrecoverable):
            run_supervised_session(
                build,
                size=3,
                plan=plan,
                checkpoint_every=20,
                max_restarts=1,
                backend_options={"default_timeout": 2.0},
            )


class TestNamedPlansFire:
    """Every named plan does what its description says at 2 and 3 ranks.

    Trigger ops and senders are counted on the placement; a plan that
    never fires still "recovers bitwise", so recovery alone proves
    nothing.
    """

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("name", PLAN_NAMES)
    def test_plan_fires(self, name, size, clean_results):
        sup = run_supervised_session(
            build,
            size=size,
            plan=named_plan(name, size=size, stall_seconds=1.5),
            checkpoint_every=20,
            backend_options={"default_timeout": 1.0},
        )
        events = [
            event
            for entry in sup.log
            if entry[0] == "run"
            for _, rank_events in entry[4]
            for event in rank_events
        ]
        failures = {
            kind
            for entry in sup.log
            if entry[0] == "restart"
            for _, kind, _ in entry[3]
        }
        if name == "dup":
            sent = sorted(e[1:] for e in events if e[0] == "duplicate")
            dropped = sorted(
                (e[2], e[1], e[3]) for e in events if e[0] == "dedup"
            )
            assert len(sent) == 2 and sent == dropped
            assert sup.restarts == 0
        elif name == "crash-mid":
            assert "InjectedCrash" in failures
        else:
            assert sup.restarts >= 1
        assert session_results_equal(sup.results, clean_results)


class TestChaosLogDeterminism:
    def test_same_plan_same_log(self, clean_results):
        runs = [
            run_supervised_session(
                build,
                size=3,
                plan=named_plan("crash-mid"),
                checkpoint_every=20,
                backend_options={"default_timeout": 2.0},
            )
            for _ in range(2)
        ]
        assert runs[0].log == runs[1].log
        assert any(entry[0] == "restart" for entry in runs[0].log)
        assert session_results_equal(runs[0].results, clean_results)
        assert session_results_equal(runs[1].results, clean_results)

    @pytest.mark.slow
    def test_log_identical_across_backends(self, clean_results):
        plan = named_plan("crash-mid")
        thread = run_supervised_session(
            build,
            size=3,
            plan=plan,
            checkpoint_every=20,
            backend_options={"default_timeout": 2.0},
        )
        proc = run_supervised_session(
            build,
            size=3,
            backend="process",
            plan=plan,
            checkpoint_every=20,
            backend_options={"default_timeout": 2.0},
        )
        assert thread.log == proc.log
        assert thread.restarts == proc.restarts == 1
        assert session_results_equal(proc.results, clean_results)


class TestProcessLiveness:
    def test_dead_rank_detected(self):
        backend = ProcessBackend(default_timeout=2.0)

        def prog(comm):
            if comm.rank == 1:
                os._exit(13)
            return comm.recv(source=1, tag=0, timeout=2.0)

        with pytest.raises(RemoteRankError) as excinfo:
            backend.run(prog, size=2)
        exc_type, message, _ = excinfo.value.errors[1]
        assert exc_type == "RankDied"
        assert "exited with code 13" in message

    def test_stalled_rank_terminated(self):
        backend = ProcessBackend(default_timeout=5.0, heartbeat_timeout=0.5)

        def prog(comm):
            if comm.rank == 1:
                time.sleep(30)  # wedged outside the communicator: no beats
                return None
            return comm.recv(source=1, tag=0, timeout=2.0)

        with pytest.raises(RemoteRankError) as excinfo:
            backend.run(prog, size=2)
        exc_type, message, _ = excinfo.value.errors[1]
        assert exc_type == "RankStalled"
        assert "terminated" in message


# -- degraded modes ---------------------------------------------------------


def collecting_context(name, sink, obs=None):
    return Context(name, lambda _name, port, payload: sink.append((port, payload)), obs)


class TestCorrelationDegraded:
    def drive(self, comp, rows):
        sink = []
        obs = Obs(enabled=True)
        ctx = collecting_context(comp.name, sink, obs)
        for s, row in rows:
            comp.on_message(ctx, "returns", (s, np.asarray(row)))
        return sink, obs

    ROWS = {
        0: [0.01, 0.02],
        1: [0.02, -0.01],
        4: [0.03, 0.05],
    }

    def test_gap_serves_stale_with_ages(self):
        comp = CorrelationEngineComponent(2, 2, degrade=DegradePolicy())
        sink, obs = self.drive(comp, sorted(self.ROWS.items()))
        intervals = [s for _, (s, _) in sink]
        assert intervals == [1, 2, 3, 4]
        stale = {s: value for _, (s, value) in sink if isinstance(value, StaleCorr)}
        assert sorted(stale) == [2, 3]
        assert stale[2].age == 1 and stale[3].age == 2
        # The stale payload is the last-good matrix, not a recomputation.
        assert np.array_equal(stale[2].value, sink[0][1][1])
        assert comp.result()["stale_served"] == 2
        assert obs.metrics.counter("pipeline.correlation.stale_served").value == 2

    def test_max_stale_age_caps_service(self):
        comp = CorrelationEngineComponent(
            2, 2, degrade=DegradePolicy(max_stale_age=1)
        )
        sink, _ = self.drive(comp, sorted(self.ROWS.items()))
        intervals = [s for _, (s, _) in sink]
        assert intervals == [1, 2, 4]  # age-2 interval 3 propagates as a gap
        assert comp.result()["stale_served"] == 1

    def test_warmup_gap_serves_nothing(self):
        comp = CorrelationEngineComponent(2, 2, degrade=DegradePolicy())
        sink, _ = self.drive(comp, [(0, self.ROWS[0]), (3, self.ROWS[4])])
        # No good matrix existed before the gap: nothing stale to serve.
        assert [s for _, (s, _) in sink] == [3]
        assert comp.result()["stale_served"] == 0

    def test_no_policy_keeps_prefault_behaviour(self):
        comp = CorrelationEngineComponent(2, 2)
        sink, _ = self.drive(comp, sorted(self.ROWS.items()))
        assert [s for _, (s, _) in sink] == [1, 4]
        assert "stale_served" not in comp.result()


class CheckpointedCell:
    """The open position of the component's one cell, read through its
    public checkpoint seam."""

    def __init__(self, comp):
        self.comp = comp

    @property
    def open_position(self):
        rows, _ = PairTradingComponent.checkpoint_positions(self.comp.snapshot())
        return rows[0] if rows else None


class TestStrategyDegraded:
    def make(self, degrade):
        comp = PairTradingComponent(
            pairs=[(0, 1)], grid=[PARAMS], smax=30, m=PARAMS.m,
            degrade=degrade,
        )
        sink = []
        obs = Obs(enabled=True)
        ctx = collecting_context(comp.name, sink, obs)
        # Establish the head interval; strategies exist afterwards.
        comp.on_message(ctx, "closes", (0, np.array([100.0, 99.0])))
        # Plant an open position through the checkpoint (entry signals
        # need a long warm-up).
        state = comp.snapshot()
        state["bank"].set_position(0, PairPosition(
            entry_s=0, long_leg=0, n_long=1, n_short=1,
            entry_price_long=100.0, entry_price_short=99.0,
            entry_spread=1.0, retracement_level=1e9,
            retracement_direction=1,
        ))
        comp.restore(state)
        return comp, CheckpointedCell(comp), sink, ctx

    def test_flatten_closes_open_position_as_degraded(self):
        comp, strat, sink, ctx = self.make(DegradePolicy(flatten=True))
        comp.on_message(ctx, "corr", (1, StaleCorr(np.eye(2), age=1)))
        comp.on_message(ctx, "closes", (1, np.array([101.0, 98.0])))
        trades = [payload for port, payload in sink if port == "trades"]
        assert len(trades) == 1
        pair, k, trade = trades[0]
        assert pair == (0, 1) and trade.reason is TradeReason.DEGRADED
        orders = [payload for port, payload in sink if port == "orders"]
        assert [kind for kind, _ in orders] == ["exit"]
        assert strat.open_position is None
        assert comp.result()["degraded_intervals"] == 1

    def test_degraded_intervals_refuse_new_entries(self):
        comp, strat, sink, ctx = self.make(DegradePolicy(flatten=True))
        for s in range(1, 5):
            comp.on_message(ctx, "corr", (s, StaleCorr(np.eye(2), age=s)))
            comp.on_message(ctx, "closes", (s, np.array([101.0, 98.0])))
        orders = [payload for port, payload in sink if port == "orders"]
        assert [kind for kind, _ in orders] == ["exit"]  # flatten only, ever
        assert strat.open_position is None
        assert comp.result()["degraded_intervals"] == 4

    def test_no_flatten_policy_keeps_position(self):
        comp, strat, sink, ctx = self.make(DegradePolicy(flatten=False))
        comp.on_message(ctx, "corr", (1, StaleCorr(np.eye(2), age=1)))
        comp.on_message(ctx, "closes", (1, np.array([101.0, 98.0])))
        assert [payload for port, payload in sink if port == "trades"] == []
        assert strat.open_position is not None
        assert comp.result()["degraded_intervals"] == 1
