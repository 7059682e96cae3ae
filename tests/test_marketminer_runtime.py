"""Tests for the workflow runtime: placement, routing, EOS shutdown."""

import threading

import pytest

from repro import mpi
from repro.marketminer.component import Component
from repro.marketminer.graph import Workflow
from repro.marketminer.scheduler import WorkflowRunner, placement_report
from repro.marketminer.session import build_synthetic_figure1
from repro.mpi.inproc import SpmdFailure
from repro.mpi.topology import contract_dag
from repro.strategy.params import StrategyParams


class NumberSource(Component):
    def __init__(self, name="numbers", n=10):
        super().__init__(name=name, output_ports=("out",))
        self.n = n

    def generate(self, ctx):
        for i in range(self.n):
            ctx.emit("out", i)


class Square(Component):
    def __init__(self, name="square"):
        super().__init__(name=name, input_ports=("in",), output_ports=("out",))

    def on_message(self, ctx, port, payload):
        ctx.emit("out", payload * payload)


class Collect(Component):
    def __init__(self, name="collect", n_inputs=1):
        ports = tuple(f"in{i}" for i in range(n_inputs))
        super().__init__(name=name, input_ports=ports)
        self.seen = []
        self.stopped = False

    def on_message(self, ctx, port, payload):
        self.seen.append((port, payload))

    def on_stop(self, ctx):
        self.stopped = True

    def result(self):
        return {"seen": list(self.seen), "stopped": self.stopped}


class FlushAtStop(Component):
    """Emits a summary from on_stop - tests post-EOS emission ordering."""

    def __init__(self, name="flusher"):
        super().__init__(name=name, input_ports=("in",), output_ports=("out",))
        self.total = 0

    def on_message(self, ctx, port, payload):
        self.total += payload

    def on_stop(self, ctx):
        ctx.emit("out", self.total)


def pipeline_workflow(n=10):
    wf = Workflow()
    wf.add(NumberSource(n=n))
    wf.add(Square())
    wf.add(Collect())
    wf.connect("numbers", "out", "square", "in")
    wf.connect("square", "out", "collect", "in0")
    return wf


def figure1(n_engines=1):
    params = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=4, d=0.002)
    return build_synthetic_figure1(
        4, 2400, 33, params, n_corr_engines=n_engines
    )


@pytest.mark.parametrize("size", [1, 2, 3, 5])
class TestAcrossRankCounts:
    def test_linear_pipeline(self, size):
        wf = pipeline_workflow()

        def spmd(comm):
            return WorkflowRunner(wf).run(comm)

        results = mpi.run_spmd(spmd, size=size)
        expected = [("in0", i * i) for i in range(10)]
        for r in results:
            assert r["collect"]["seen"] == expected
            assert r["collect"]["stopped"] is True

    def test_fan_out_fan_in(self, size):
        wf = Workflow()
        wf.add(NumberSource(n=5))
        wf.add(Square(name="sq_a"))
        wf.add(Square(name="sq_b"))
        wf.add(Collect(n_inputs=2))
        wf.connect("numbers", "out", "sq_a", "in")
        wf.connect("numbers", "out", "sq_b", "in")
        wf.connect("sq_a", "out", "collect", "in0")
        wf.connect("sq_b", "out", "collect", "in1")

        def spmd(comm):
            return WorkflowRunner(wf).run(comm)

        results = mpi.run_spmd(spmd, size=size)
        seen = results[0]["collect"]["seen"]
        assert sorted(p for _, p in seen) == sorted(
            [i * i for i in range(5)] * 2
        )
        # Per-upstream ordering preserved even when interleaved.
        for port in ("in0", "in1"):
            assert [p for pt, p in seen if pt == port] == [i * i for i in range(5)]

    def test_on_stop_emission_delivered(self, size):
        wf = Workflow()
        wf.add(NumberSource(n=4))
        wf.add(FlushAtStop())
        wf.add(Collect())
        wf.connect("numbers", "out", "flusher", "in")
        wf.connect("flusher", "out", "collect", "in0")

        def spmd(comm):
            return WorkflowRunner(wf).run(comm)

        results = mpi.run_spmd(spmd, size=size)
        assert results[0]["collect"]["seen"] == [("in0", 6)]

    def test_multiple_sources(self, size):
        wf = Workflow()
        wf.add(NumberSource(name="src_a", n=3))
        wf.add(NumberSource(name="src_b", n=3))
        wf.add(Collect(n_inputs=2))
        wf.connect("src_a", "out", "collect", "in0")
        wf.connect("src_b", "out", "collect", "in1")

        def spmd(comm):
            return WorkflowRunner(wf).run(comm)

        results = mpi.run_spmd(spmd, size=size)
        seen = results[0]["collect"]["seen"]
        assert len(seen) == 6
        assert results[0]["collect"]["stopped"]


class TestRuntimeErrors:
    def test_emit_on_undeclared_port(self):
        class BadSource(Component):
            def __init__(self):
                super().__init__(name="bad", output_ports=("out",))

            def generate(self, ctx):
                ctx.emit("wrong_port", 1)

        wf = Workflow()
        wf.add(BadSource())
        wf.add(Collect())
        wf.connect("bad", "out", "collect", "in0")

        def spmd(comm):
            return WorkflowRunner(wf).run(comm)

        with pytest.raises(SpmdFailure, match="undeclared port"):
            mpi.run_spmd(spmd, size=1)

    def test_invalid_workflow_rejected_at_construction(self):
        wf = Workflow()
        wf.add(Collect())
        with pytest.raises(ValueError):
            WorkflowRunner(wf)


class TestPlacement:
    def test_rank_map_deterministic_and_complete(self):
        wf = pipeline_workflow()
        runner = WorkflowRunner(wf)
        rm1 = runner.rank_map(3)
        rm2 = runner.rank_map(3)
        assert rm1.assignment == rm2.assignment
        assert set(rm1.assignment) == {"numbers", "square", "collect"}

    def test_weights_influence_placement(self):
        wf = Workflow()
        wf.add(NumberSource(n=1))
        heavy = Square(name="heavy")
        heavy.weight = 100.0
        wf.add(heavy)
        wf.add(Collect())
        wf.connect("numbers", "out", "heavy", "in")
        wf.connect("heavy", "out", "collect", "in0")
        rm = WorkflowRunner(wf).rank_map(3)
        heavy_rank = rm.rank_of("heavy")
        assert rm.components_of(heavy_rank) == ("heavy",)

    @pytest.mark.parametrize(
        "n_engines,size", [(1, 2), (1, 3), (1, 4), (1, 5), (3, 4)]
    )
    def test_figure1_collector_alone_on_rank_0(self, n_engines, size):
        wf = figure1(n_engines)
        report = placement_report(wf, size)
        assert report.components_of(0) == ("live_collector",)
        assert report.idle_ranks() == ()

    def test_size_one_hosts_everything_on_rank_0(self):
        wf = figure1()
        report = placement_report(wf, 1)
        assert set(report.components_of(0)) == set(wf.components)

    def test_more_sources_than_spare_ranks_is_plain_contraction(self):
        wf = Workflow()
        wf.add(NumberSource(name="src_a"))
        wf.add(NumberSource(name="src_b"))
        wf.add(Collect(n_inputs=2))
        wf.connect("src_a", "out", "collect", "in0")
        wf.connect("src_b", "out", "collect", "in1")
        spec = wf.spec()
        weights = {n: c.weight for n, c in spec.components.items()}
        plain = contract_dag(spec.to_networkx(), 2, weights=weights)
        assert placement_report(wf, 2).assignment == dict(plain.assignment)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_loads_sum_to_total_weight(self, size):
        wf = figure1(n_engines=3)
        report = placement_report(wf, size)
        total = sum(c.weight for c in wf.spec().components.values())
        assert len(report.loads) == size
        assert sum(report.loads) == pytest.approx(total)


class ClosedLoopSource(NumberSource):
    """Emits item ``i + 1`` only once the sink has seen item ``i``."""

    def __init__(self, delivered):
        super().__init__(n=len(delivered))
        self.delivered = delivered

    def generate(self, ctx):
        for i in range(self.n):
            ctx.emit("out", i)
            if not self.delivered[i].wait(2.0):
                raise TimeoutError(
                    f"item {i} not delivered before the next was due"
                )


class SignallingCollect(Collect):
    def __init__(self, delivered):
        super().__init__()
        self.delivered = delivered

    def on_message(self, ctx, port, payload):
        super().on_message(ctx, port, payload)
        self.delivered[len(self.seen) - 1].set()


class TestSinkIsServedWhileTheSourceRuns:
    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_closed_loop_source(self, size):
        delivered = [threading.Event() for _ in range(5)]
        wf = Workflow()
        wf.add(ClosedLoopSource(delivered))
        wf.add(Square())
        wf.add(SignallingCollect(delivered))
        wf.connect("numbers", "out", "square", "in")
        wf.connect("square", "out", "collect", "in0")

        def spmd(comm):
            return WorkflowRunner(wf).run(comm)

        results = mpi.run_spmd(
            spmd, size=size, backend="thread", default_timeout=5.0
        )
        assert results[0]["collect"]["seen"] == [
            ("in0", i * i) for i in range(5)
        ]
