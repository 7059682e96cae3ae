"""Elastic runtime suite: resize plans, stable sharding, the supervisor.

The headline invariant under test: a supervised Figure-1 session whose
rank pool is resized at epoch boundaries is *bitwise-identical* to the
same session run at a fixed pool size — component results and folded
domain counters alike, on both MPI backends.  Around it: plan
validation is pointed, mid-epoch resize requests defer to the next
boundary, capacity violations fail before any epoch runs, pair shards
are balanced and a function of the pair set alone (never of arrival
order or id type), and a pool that keeps crashing can shed a rank (crash-as-shrink) while keeping
the invariant.
"""

import json
import os
import random

import numpy as np
import pytest

from repro.backtest.data import BarProvider
from repro.backtest.distributed import DistributedBacktester
from repro.corr.measures import all_pairs
from repro.elastic import ResizePlan, ResizeRequest, shard_pairs
from repro.faults import (
    ChaosUnrecoverable,
    DegradePolicy,
    FaultPlan,
    RankCrash,
    fold_obs_counters,
    run_supervised_session,
    session_results_equal,
)
from repro.marketminer.session import (
    SessionControl,
    build_figure1_workflow,
    run_figure1_session,
)
from repro.mpi.launcher import backend_capacity, check_pool_size, run_spmd
from repro.strategy.params import StrategyParams
from repro.taq.synthetic import (
    SyntheticMarket,
    SyntheticMarketConfig,
    default_universe,
)
from repro.util.timeutil import TimeGrid

SECONDS = 23_400 // 16
PARAMS = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=4, d=0.002)
PAIRS = [(0, 1), (2, 3)]
OPTIONS = {"default_timeout": 10.0}
#: For sessions where a rank crashes: its peers wait out one whole
#: timeout before the supervisor sees the epoch fail.
CRASH_OPTIONS = {"default_timeout": 2.0}

#: Transport counters legitimately scale with the pool size; everything
#: else (domain counters) must fold identically across pool shapes.
EXCLUDE = ("mpi.",)


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
def fixed_run():
    """Fixed-size baseline at pool size 3 with obs for counter folding."""
    return run_supervised_session(
        build, size=3, checkpoint_every=20, obs_enabled=True,
        backend_options=OPTIONS,
    )


class TestResizePlan:
    def test_request_validates_epoch_and_size(self):
        with pytest.raises(ValueError, match="epoch"):
            ResizeRequest(-1, 2)
        with pytest.raises(ValueError, match="below 1"):
            ResizeRequest(0, 0)

    def test_plan_rejects_duplicate_epochs(self):
        with pytest.raises(ValueError, match="more than once"):
            ResizePlan((ResizeRequest(1, 2), ResizeRequest(1, 4)))

    def test_plan_sorts_by_epoch(self):
        plan = ResizePlan((ResizeRequest(3, 2), ResizeRequest(1, 4)))
        assert [r.epoch for r in plan.requests] == [1, 3]
        assert plan.by_epoch() == {1: 4, 3: 2}
        assert plan.max_epoch == 3

    def test_of_coerces_none_request_iterable_and_plan(self):
        assert ResizePlan.of(None).requests == ()
        assert ResizePlan.of(ResizeRequest(1, 2)).by_epoch() == {1: 2}
        assert ResizePlan.of(
            [ResizeRequest(1, 2), ResizeRequest(2, 3)]
        ).by_epoch() == {1: 2, 2: 3}
        plan = ResizePlan((ResizeRequest(1, 2),))
        assert ResizePlan.of(plan) is plan
        with pytest.raises(TypeError, match="ResizeRequest"):
            ResizePlan.of([(1, 2)])

    def test_empty_plan_max_epoch(self):
        assert ResizePlan(()).max_epoch == -1


class TestStableSharding:
    """The one placement rule (sorted pairs dealt round-robin): shards
    are a function of the *set* of pairs and the size — never of arrival
    order or integer type — and balanced within one."""

    def pairs(self, n=40):
        return [(i, j) for i in range(n) for j in range(i + 1, min(i + 4, n))]

    @pytest.mark.parametrize("size", range(1, 9))
    def test_union_is_identity_at_every_size(self, size):
        pairs = self.pairs()
        shards = shard_pairs(pairs, size)
        assert len(shards) == size
        flat = [p for shard in shards for p in shard]
        assert sorted(flat) == sorted(pairs)
        assert len(flat) == len(pairs)  # no pair placed twice

    def test_balanced_within_one(self):
        """0, 1, 6, 276 and 1 830 pairs (the paper's universe): the hash
        this replaced split them 4/2, 144/132 and 930/900 on two ranks."""
        for n_symbols in (1, 2, 4, 24, 61):
            pairs = all_pairs(n_symbols)
            assert len(pairs) in (0, 1, 6, 276, 1830)
            for size in range(1, 9):
                lengths = [len(shard) for shard in shard_pairs(pairs, size)]
                assert sum(lengths) == len(pairs)
                assert max(lengths) - min(lengths) <= 1

    def test_placement_is_input_order_independent(self):
        pairs = self.pairs()
        shuffled = list(pairs)
        random.Random(5).shuffle(shuffled)
        for size in (1, 2, 3, 5):
            expected = shard_pairs(pairs, size)
            assert shard_pairs(pairs[::-1], size) == expected
            assert shard_pairs(shuffled, size) == expected

    def test_int_and_numpy_ids_shard_alike(self):
        """Ids read out of an array place as plain ints do (the hash keyed
        on ``repr``: under NumPy 2, 44 of these 66 pairs moved)."""
        pairs = all_pairs(12)
        from_array = [tuple(row) for row in np.asarray(pairs)]
        assert type(from_array[0][0]) is not int
        assert shard_pairs(from_array, 3) == shard_pairs(pairs, 3)

    def test_deleted_placement_rules_are_gone(self):
        """One function splits a pair list; the others are deleted, not
        kept beside it."""
        import repro.corr
        import repro.corr.parallel
        import repro.elastic.sharding

        for module, name in (
            (repro.elastic, "stable_shard"),
            (repro.elastic.sharding, "stable_shard"),
            (repro.elastic.sharding, "_fnv1a"),
            (repro.corr, "partition_pairs"),
            (repro.corr.parallel, "partition_pairs"),
            (repro.corr, "parallel_pair_series"),
            (repro.corr.parallel, "parallel_pair_series"),
            (repro.corr.parallel.ParallelCorrelationEngine, "matrix"),
        ):
            with pytest.raises(AttributeError):
                getattr(module, name)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_distributed_backtest_identical_across_pool_sizes(self, size):
        """Which rank correlates and trades a pair changes with the pool
        size; the merged store must not."""
        market = SyntheticMarket(
            default_universe(6),
            SyntheticMarketConfig(trading_seconds=2400, quote_rate=0.9),
            seed=7,
        )
        provider = BarProvider(
            market, TimeGrid(30, trading_seconds=2400)
        )
        pairs = list(market.universe.pairs())
        grid = [PARAMS]

        def spmd(comm):
            engine = DistributedBacktester(provider)
            return engine.run(comm, pairs, grid, [0])

        store = run_spmd(spmd, size=size, default_timeout=10.0)[0]
        baseline = run_spmd(spmd, size=1, default_timeout=10.0)[0]
        assert store == baseline


class TestElasticResize:
    """The tentpole: grow and shrink at epoch boundaries, bitwise."""

    @pytest.fixture(scope="class")
    def elastic_run(self):
        return run_supervised_session(
            build, size=2, checkpoint_every=20,
            resize=ResizePlan((ResizeRequest(1, 4), ResizeRequest(2, 3))),
            obs_enabled=True, backend_options=OPTIONS,
        )

    def test_pool_trajectory_and_history(self, elastic_run):
        assert elastic_run.pool_sizes == (2, 4, 3)
        assert elastic_run.resizes == ((1, 2, 4), (2, 4, 3))

    def test_resize_is_bitwise_invisible(self, fixed_run, elastic_run):
        assert session_results_equal(
            fixed_run.results, elastic_run.results
        )

    def test_folded_domain_counters_identical(self, fixed_run, elastic_run):
        fixed = fold_obs_counters(
            fixed_run.obs_reports, exclude_prefixes=EXCLUDE
        )
        elastic = fold_obs_counters(
            elastic_run.obs_reports, exclude_prefixes=EXCLUDE
        )
        assert fixed and fixed == elastic

    def test_resize_entries_logged_with_moves(self, elastic_run):
        entries = [e for e in elastic_run.log if e[0] == "resize"]
        assert [(e[1], e[2], e[3]) for e in entries] == [
            (1, 2, 4), (2, 4, 3),
        ]
        for entry in entries:
            moved = entry[4]
            # Deterministic (component, old_rank, new_rank) placement
            # moves, sorted by component name.
            assert all(
                isinstance(name, str) and old != new
                for name, old, new in moved
            )
            assert list(moved) == sorted(moved, key=lambda m: m[0])

    def test_log_is_deterministic(self, elastic_run):
        again = run_supervised_session(
            build, size=2, checkpoint_every=20,
            resize=(ResizeRequest(1, 4), ResizeRequest(2, 3)),  # coercion
            backend_options=OPTIONS,
        )
        assert again.log == elastic_run.log

    def test_fixed_size_log_has_no_resize_entries(self, fixed_run):
        assert all(e[0] != "resize" for e in fixed_run.log)

    @pytest.mark.skipif(
        os.environ.get("REPRO_SKIP_PROCESS_TESTS") == "1",
        reason="process backend disabled in this environment",
    )
    def test_resize_bitwise_on_process_backend(self):
        fixed = run_supervised_session(
            build, size=3, checkpoint_every=20, backend="process",
            backend_options={"default_timeout": 30.0},
        )
        elastic = run_supervised_session(
            build, size=2, checkpoint_every=20, backend="process",
            resize=ResizePlan((ResizeRequest(1, 4), ResizeRequest(2, 3))),
            backend_options={"default_timeout": 30.0},
        )
        assert elastic.pool_sizes == (2, 4, 3)
        assert session_results_equal(fixed.results, elastic.results)


class TestControlRequestedResize:
    """A resize requested mid-epoch (through ``SessionControl``) is
    deferred to the next epoch boundary, then applied exactly once."""

    def test_mid_epoch_request_defers_to_boundary(self, fixed_run):
        control = SessionControl(poll_interval=0.001)
        fired = []

        def hook(rank, obs_handle):
            # obs_hook fires inside the running epoch-0 world — after
            # the supervisor consumed pending requests for this epoch —
            # so this is a genuine mid-epoch request.
            if not fired:
                fired.append(rank)
                control.request_resize(3)

        run = run_supervised_session(
            build, size=2, checkpoint_every=20, control=control,
            obs_enabled=True, obs_hook=hook, backend_options=OPTIONS,
        )
        assert fired, "obs hook never fired: test is vacuous"
        # Epoch 0 ran (and finished) at the original size; the request
        # landed at the next rebuild boundary and stuck from there on.
        assert run.pool_sizes[0] == 2
        assert run.pool_sizes[1:] == (3,) * (len(run.pool_sizes) - 1)
        assert run.resizes == ((1, 2, 3),)
        assert session_results_equal(fixed_run.results, run.results)
        assert control.pending_resize is None  # consumed, not dangling
        assert control.pool_size == 3
        assert control.resize_history() == [(1, 2, 3)]

    def test_boundary_request_applies_at_that_boundary(self, fixed_run):
        # A request queued before an epoch's gate is consumed at that
        # gate's rebuild (epoch 0 included: it overrides the start size).
        control = SessionControl()
        control.request_resize(3)
        run = run_supervised_session(
            build, size=2, checkpoint_every=20, control=control,
            backend_options=OPTIONS,
        )
        assert run.pool_sizes == (3,) * len(run.pool_sizes)
        assert run.resizes == ((0, 2, 3),)
        assert session_results_equal(fixed_run.results, run.results)

    def test_request_resize_rejects_below_one(self):
        control = SessionControl()
        with pytest.raises(ValueError, match="below 1"):
            control.request_resize(0)

    def test_latest_request_wins_single_slot(self):
        control = SessionControl()
        control.request_resize(2)
        control.request_resize(5)
        assert control.pending_resize == 5
        assert control.take_resize() == 5
        assert control.take_resize() is None


class TestCapacityErrors:
    """Shrink-below-1 and grow-above-capacity fail with pointed errors
    before any epoch runs."""

    def test_shrink_below_one_is_pointed(self):
        with pytest.raises(ValueError, match="below 1"):
            check_pool_size(0, "thread")

    def test_grow_above_thread_capacity_names_backend_and_cap(self):
        cap = backend_capacity("thread")
        with pytest.raises(ValueError) as err:
            check_pool_size(cap + 1, "thread")
        assert "thread" in str(err.value)
        assert str(cap) in str(err.value)

    def test_plan_beyond_capacity_rejected_before_first_epoch(self):
        cap = backend_capacity("thread")
        with pytest.raises(ValueError, match=str(cap)):
            run_supervised_session(
                build, size=2, checkpoint_every=20,
                resize=ResizePlan((ResizeRequest(1, cap + 1),)),
                backend_options=OPTIONS,
            )

    def test_plan_beyond_session_epochs_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            run_supervised_session(
                build, size=2, checkpoint_every=20,
                resize=ResizePlan((ResizeRequest(99, 3),)),
                backend_options=OPTIONS,
            )

    def test_backend_capacity_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown"):
            backend_capacity("slurm")
        with pytest.raises(ValueError, match="unknown backend 'slurm'"):
            check_pool_size(2, "slurm")


class TestCrashAsShrink:
    """A pool that keeps crashing past ``max_restarts`` sheds one rank
    under ``DegradePolicy(shrink_on_crash=True)`` — and stays bitwise."""

    def stubborn_plan(self):
        # Rank 2 crashes on every attempt of epoch 1's op range: the
        # restart budget can never clear it at pool size 3.
        return FaultPlan(
            "stubborn-rank2",
            crashes=(
                RankCrash(rank=2, at_op=30, attempt=0),
                RankCrash(rank=2, at_op=35, attempt=1),
            ),
        )

    def test_shrink_recovers_bitwise(self, fixed_run):
        run = run_supervised_session(
            build, size=3, checkpoint_every=20,
            plan=self.stubborn_plan(), max_restarts=0,
            degrade=DegradePolicy(shrink_on_crash=True),
            backend_options=CRASH_OPTIONS,
        )
        shrinks = [e for e in run.log if e[0] == "shrink"]
        assert shrinks, "shrink never fired: test is vacuous"
        assert 2 in run.pool_sizes
        assert any(old == 3 and new == 2 for _, old, new in run.resizes)
        assert session_results_equal(fixed_run.results, run.results)

    def test_without_degrade_raises_enriched_error(self):
        with pytest.raises(ChaosUnrecoverable) as err:
            run_supervised_session(
                build, size=3, checkpoint_every=20,
                plan=self.stubborn_plan(), max_restarts=0,
                backend_options=CRASH_OPTIONS,
            )
        exc = err.value
        assert exc.attempts >= 1
        assert exc.restarts >= 1
        assert any("InjectedCrash" in item[1] for item in exc.failure)
        assert "pool size 3" in str(exc)
        assert "InjectedCrash" in str(exc)

    def test_min_ranks_floor_stops_shrinking(self):
        # Every rank-0 attempt crashes; min_ranks=3 forbids shedding,
        # so the session must give up rather than shrink.
        plan = FaultPlan(
            "stubborn-rank0",
            crashes=(
                RankCrash(rank=0, at_op=30, attempt=0),
                RankCrash(rank=0, at_op=35, attempt=1),
            ),
        )
        with pytest.raises(ChaosUnrecoverable):
            run_supervised_session(
                build, size=3, checkpoint_every=20, plan=plan,
                max_restarts=0,
                degrade=DegradePolicy(shrink_on_crash=True, min_ranks=3),
                backend_options=CRASH_OPTIONS,
            )

    def test_degrade_policy_validates_min_ranks(self):
        with pytest.raises(ValueError, match="min_ranks"):
            DegradePolicy(min_ranks=0)


class TestElasticObsCounters:
    """The supervisor's own bookkeeping lands in ``recovery.*``."""

    def test_resize_and_checkpoint_counters(self):
        from repro.obs import Obs

        obs = Obs(enabled=True)
        run = run_supervised_session(
            build, size=2, checkpoint_every=20,
            resize=ResizePlan((ResizeRequest(1, 3),)),
            obs=obs, backend_options=OPTIONS,
        )
        counters = {
            name: c.value for name, c in obs.metrics.counters.items()
        }
        assert counters.get("recovery.resizes") == 1
        assert counters.get("recovery.checkpoints") == run.checkpoints

    def test_shrink_counter(self):
        from repro.obs import Obs

        obs = Obs(enabled=True)
        plan = FaultPlan(
            "stubborn-rank2",
            crashes=(
                RankCrash(rank=2, at_op=30, attempt=0),
                RankCrash(rank=2, at_op=35, attempt=1),
            ),
        )
        run_supervised_session(
            build, size=3, checkpoint_every=20, plan=plan, max_restarts=0,
            degrade=DegradePolicy(shrink_on_crash=True),
            obs=obs, backend_options=CRASH_OPTIONS,
        )
        counters = {
            name: c.value for name, c in obs.metrics.counters.items()
        }
        assert counters.get("recovery.shrinks", 0) >= 1
        assert counters.get("recovery.restarts", 0) >= 1


class TestDriverFlight:
    """Resize/shrink events land in the driver-side flight stream."""

    def test_resize_events_dumped(self, tmp_path):
        run_supervised_session(
            build, size=2, checkpoint_every=20,
            resize=ResizePlan((ResizeRequest(1, 3),)),
            flight_dump=str(tmp_path), backend_options=OPTIONS,
        )
        path = tmp_path / "driver-elastic.jsonl"
        assert path.exists()
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        resizes = [e for e in events if e["event"] == "resize"]
        assert resizes and resizes[0]["old"] == 2 and resizes[0]["new"] == 3
