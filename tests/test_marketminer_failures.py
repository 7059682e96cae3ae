"""Failure injection: the runtime must surface component faults loudly."""

import pytest

from repro import mpi
from repro.marketminer.component import Component
from repro.marketminer.graph import Workflow
from repro.marketminer.scheduler import WorkflowRunner
from repro.mpi.inproc import SpmdFailure
from tests.test_marketminer_graph import Sink, Source

#: A failing component's peer ranks wait out one whole recv timeout.
FAILING_TIMEOUT = 2.0


class ExplodesOnN(Component):
    def __init__(self, n, name="bomb"):
        super().__init__(name=name, input_ports=("in",), output_ports=("out",))
        self.n = n
        self.processed = 0

    def on_message(self, ctx, port, payload):
        if payload == self.n:
            raise RuntimeError(f"component exploded on payload {payload}")
        self.processed += 1
        ctx.emit("out", payload)


class ExplodesOnStop(Component):
    def __init__(self, name="stop_bomb"):
        super().__init__(name=name, input_ports=("in",), output_ports=("out",))

    def on_message(self, ctx, port, payload):
        ctx.emit("out", payload)

    def on_stop(self, ctx):
        raise RuntimeError("flush failed")


def wire(middle):
    wf = Workflow()
    wf.add(Source(items=(1, 2, 3, 4, 5)))
    wf.add(middle)
    wf.add(Sink())
    wf.connect("src", "out", middle.name, "in")
    wf.connect(middle.name, "out", "sink", "in")
    return wf


@pytest.mark.parametrize("size", [1, 3])
class TestComponentFaults:
    def test_on_message_fault_fails_run(self, size):
        wf = wire(ExplodesOnN(3))

        def spmd(comm):
            return WorkflowRunner(wf).run(comm)

        with pytest.raises(SpmdFailure, match="exploded on payload 3"):
            mpi.run_spmd(spmd, size=size, default_timeout=FAILING_TIMEOUT)

    def test_on_stop_fault_fails_run(self, size):
        wf = wire(ExplodesOnStop())

        def spmd(comm):
            return WorkflowRunner(wf).run(comm)

        with pytest.raises(SpmdFailure, match="flush failed"):
            mpi.run_spmd(spmd, size=size, default_timeout=FAILING_TIMEOUT)


class TestFaultIsolation:
    def test_healthy_run_after_failed_run(self):
        """A failed run must not poison subsequent runs (no shared state)."""
        bad = wire(ExplodesOnN(3))

        def spmd_bad(comm):
            return WorkflowRunner(bad).run(comm)

        with pytest.raises(SpmdFailure):
            mpi.run_spmd(spmd_bad, size=2, default_timeout=FAILING_TIMEOUT)

        good = wire(ExplodesOnN(999, name="bomb"))

        def spmd_good(comm):
            return WorkflowRunner(good).run(comm)

        results = mpi.run_spmd(spmd_good, size=2, default_timeout=5.0)[0]
        assert results["sink"] == [1, 2, 3, 4, 5]
