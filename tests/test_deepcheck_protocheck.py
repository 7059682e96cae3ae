"""What is left of protocheck: its two liveness rules were ``graph.*``
under second ids (``proto.eos-gap`` = ``graph.missing-input``,
``proto.wait-cycle`` within ``graph.cycle``) and are asserted here under
the ids that remain; ``proto.undeclared-emit`` is what the runtime
raises at the first message (``test_emit_on_undeclared_port``).

The other emit/handle rules are deleted: on every graph the repo builds
their lifetime output was one finding, the intentional ``bars`` tap.
Their specs and component fixtures stay as a silence corpus: the static
passes must report nothing on them, whatever the test's name says about
the old rule.
"""

from repro.analysis import lint_graph, lint_source
from repro.marketminer.graph import ComponentSpec, Edge, GraphSpec

FIXTURE = '''
class Component:
    pass

class Producer(Component):
    def generate(self, ctx):
        ctx.emit("ticks", 1)
        self._flush(ctx)
    def _flush(self, ctx):
        ctx.emit("summary", 2)

class ModuleHelperProducer(Component):
    def generate(self, ctx):
        _emit_all(ctx)

def _emit_all(ctx):
    ctx.emit("ticks", 1)

class ClosedConsumer(Component):
    def on_message(self, ctx, port, payload):
        if port == "ticks":
            pass
        elif port == "control":
            pass
        else:
            raise ValueError(port)

class OpenConsumer(Component):
    def on_message(self, ctx, port, payload):
        self.handle(port, payload)
    def handle(self, port, payload):
        pass

class SilentProducer(Component):
    def generate(self, ctx):
        pass

class DynamicProducer(Component):
    def generate(self, ctx):
        for port in ("a", "b"):
            ctx.emit(port, 1)
'''


def spec(components, edges, name="g") -> GraphSpec:
    return GraphSpec(name=name, components=components, edges=tuple(edges))


def rules(s: GraphSpec, fixture: str = FIXTURE) -> set:
    """Rule ids of both static passes: the spec and the classes behind it."""
    diags = [*lint_graph(s), *lint_source(fixture, "repro/fixture.py")]
    return {d.rule for d in diags}


class TestEmitSide:
    def test_clean_wiring_passes(self):
        s = spec(
            {
                "prod": ComponentSpec("prod", output_ports=("ticks", "summary")),
                "cons": ComponentSpec("cons", input_ports=("ticks", "control")),
            },
            [
                Edge("prod", "ticks", "cons", "ticks"),
                Edge("prod", "summary", "cons", "control"),
            ],
        )
        assert rules(s) == set()

    def test_undeclared_emit_flagged(self):
        s = spec(
            {"prod": ComponentSpec("prod", output_ports=("ticks",))},
            [],
        )
        assert rules(s) == set()  # "summary": the runtime raises instead

    def test_emit_through_module_helper_found(self):
        s = spec(
            {
                "prod": ComponentSpec("prod", output_ports=("ticks",)),
                "cons": ComponentSpec("cons", input_ports=("ticks",)),
            },
            [Edge("prod", "ticks", "cons", "ticks")],
        )
        assert rules(s) == set()

    def test_dead_edge_flagged_when_source_never_emits(self):
        s = spec(
            {
                "prod": ComponentSpec("prod", output_ports=("ticks",)),
                "cons": ComponentSpec("cons", input_ports=("ticks",)),
            },
            [Edge("prod", "ticks", "cons", "ticks")],
        )
        assert rules(s) == set()

    def test_dropped_emit_flagged_without_edge(self):
        s = spec(
            {"prod": ComponentSpec("prod", output_ports=("ticks", "summary"))},
            [],
        )
        assert rules(s) == set()

    def test_dynamic_emit_reported_as_info_and_quiets_dead_edge(self):
        s = spec(
            {
                "prod": ComponentSpec("prod", output_ports=("a", "b")),
                "cons": ComponentSpec("cons", input_ports=("a",)),
            },
            [Edge("prod", "a", "cons", "a")],
        )
        assert rules(s) == set()


class TestReceiveSide:
    def test_emitted_but_unhandled_tag_fails(self):
        # Acceptance fixture: producer emits "summary" into the consumer's
        # "summary" input, but the closed on_message dispatch only covers
        # "ticks"/"control" — the message would be silently dropped.
        s = spec(
            {
                "prod": ComponentSpec("prod", output_ports=("ticks", "summary")),
                "cons": ComponentSpec(
                    "cons", input_ports=("ticks", "summary")
                ),
            },
            [
                Edge("prod", "ticks", "cons", "ticks"),
                Edge("prod", "summary", "cons", "summary"),
            ],
        )
        assert rules(s) == set()

    def test_open_dispatch_handles_everything(self):
        s = spec(
            {
                "prod": ComponentSpec("prod", output_ports=("ticks",)),
                "cons": ComponentSpec("cons", input_ports=("ticks",)),
            },
            [Edge("prod", "ticks", "cons", "ticks")],
        )
        assert rules(s) == set()

    def test_eos_gap_on_unconnected_input(self):
        s = spec(
            {"cons": ComponentSpec("cons", input_ports=("ticks",))},
            [],
        )
        assert "graph.missing-input" in rules(s)


class TestLiveness:
    def test_wait_cycle_through_live_edges(self):
        fixture = FIXTURE + '''
class Echo(Component):
    def on_message(self, ctx, port, payload):
        ctx.emit("out", payload)
'''
        s = spec(
            {
                "a": ComponentSpec("a", input_ports=("in",),
                                   output_ports=("out",)),
                "b": ComponentSpec("b", input_ports=("in",),
                                   output_ports=("out",)),
            },
            [
                Edge("a", "out", "b", "in"),
                Edge("b", "out", "a", "in"),
            ],
        )
        assert "graph.cycle" in rules(s, fixture)


class TestRealFigure1:
    def _workflow(self):
        from repro.marketminer.session import build_figure1_workflow
        from repro.strategy.params import StrategyParams
        from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
        from repro.taq.universe import default_universe
        from repro.util.timeutil import TimeGrid

        market = SyntheticMarket(
            default_universe(4),
            SyntheticMarketConfig(trading_seconds=600, quote_rate=0.9),
            seed=7,
        )
        params = StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=5, d=0.001)
        return build_figure1_workflow(
            market, TimeGrid(30, trading_seconds=600),
            list(market.universe.pairs()), [params],
        )

    def test_figure1_has_only_the_known_bars_tap(self):
        # The tap (bar_accumulator.bars has no consumer) is intentional
        # and no rule that remains reports it.
        assert list(lint_graph(self._workflow(), size=2)) == []
