"""Source-rule tests: each kept rule fires on a minimal violation, the
suppression comment works, and the repository's own sources are clean.

The classes marked *retired* belong to rules deleted after the 14-tree
audit (none ever fired on a real change).  Their fixtures stay as a
silence corpus: the one lint pass must parse them and report nothing,
whatever the test's name says about the old rule.
"""

import ast
import re
import textwrap
from pathlib import Path

from repro.analysis import RULES, Severity, lint_source, lint_tree


def lint(code, path="pkg/mod.py"):
    return lint_source(textwrap.dedent(code), path)


def rules(diags):
    return [d.rule for d in diags]


class TestBareExcept:
    """Retired: repo.bare-except."""

    def test_fires(self):
        diags = lint(
            """
            def f():
                try:
                    g()
                except:
                    pass
            """
        )
        assert diags == []

    def test_typed_except_clean(self):
        assert lint(
            """
            def f():
                try:
                    g()
                except ValueError:
                    pass
            """
        ) == []


class TestMutableDefault:
    """Retired: repo.mutable-default."""

    def test_literal_default_fires(self):
        diags = lint("def f(x, acc=[]):\n    return acc\n")
        assert diags == []

    def test_constructor_default_fires(self):
        diags = lint("def f(x, acc=dict()):\n    return acc\n")
        assert diags == []

    def test_kwonly_default_fires(self):
        diags = lint("def f(*, acc={}):\n    return acc\n")
        assert diags == []

    def test_none_default_clean(self):
        assert lint("def f(x, acc=None):\n    return acc\n") == []


class TestWallClock:
    """One clock rule, scoped to a Component's run scope."""

    def test_handler_reading_wall_clock_fires(self):
        diags = lint(
            """
            import time

            class Thing(Component):
                def on_message(self, ctx, port, payload):
                    return time.time()
            """
        )
        assert rules(diags) == ["repo.wall-clock"]
        assert diags[0].severity is Severity.ERROR
        assert "session clock" in diags[0].hint

    def test_generate_handler_checked(self):
        diags = lint(
            """
            from datetime import datetime

            class Src(Component):
                def generate(self, ctx):
                    ctx.emit("out", datetime.now())
            """
        )
        assert rules(diags) == ["repo.wall-clock"]

    def test_duration_clock_in_reached_helper_fires(self):
        diags = lint(
            """
            from time import perf_counter as pc

            class Thing(Base):
                def on_stop(self, ctx):
                    self._flush(ctx)

                def _flush(self, ctx):
                    ctx.emit("out", pc())

            class Base(Component):
                pass
            """
        )
        assert rules(diags) == ["repo.wall-clock"]
        assert "Thing._flush" in diags[0].message
        assert "time.perf_counter()" in diags[0].message

    def test_construction_and_clock_seams_clean(self):
        assert lint(
            """
            import time

            class Thing(Component):
                def __init__(self, clock=time.monotonic):
                    self._born = time.time()
                    self._clock = clock

                def on_message(self, ctx, port, payload):
                    ctx.emit("out", self._clock())
            """
        ) == []

    def test_non_handler_method_clean(self):
        assert lint(
            """
            import time

            class Timer:
                def sample(self):
                    return time.time()
            """
        ) == []

    def test_outside_component_run_scope_clean(self):
        assert lint(
            """
            import time

            class Thing:
                def on_message(self, ctx, port, payload):
                    return time.time()

            def run_pipeline():
                return time.perf_counter()
            """
        ) == []

    def test_handler_without_wall_clock_clean(self):
        assert lint(
            """
            class Thing(Component):
                def on_message(self, ctx, port, payload):
                    ctx.emit("out", payload)
            """
        ) == []


class TestMetricName:
    """Retired: repo.metric-name."""

    def test_bad_literal_fires(self):
        diags = lint('obs.counter("BadName")\n')
        assert diags == []

    def test_missing_area_prefix_fires(self):
        diags = lint('obs.counter("messages")\n')
        assert diags == []

    def test_good_literal_clean(self):
        assert lint('obs.counter("mpi.sent.bytes")\n') == []

    def test_bucketed_name_clean(self):
        assert lint('obs.gauge("corr.block[0].pairs")\n') == []

    def test_fstring_prefix_checked(self):
        assert lint('obs.timer(f"rank.{r}.seconds")\n') == []
        diags = lint('obs.timer(f"{r}.seconds")\n')
        # No leading literal chunk -> nothing checkable; stays quiet.
        assert diags == []
        diags = lint('obs.timer(f"Rank{r}.seconds")\n')
        assert diags == []


class TestMpiBounds:
    """Retired: repo.mpi-bounds (``test_invalid_destination_rejected`` and
    ``test_negative_user_tag_rejected`` pin the behaviour)."""

    def test_unchecked_entry_point_fires(self):
        diags = lint(
            """
            class LooseComm:
                def send(self, obj, dest, tag=0):
                    self._boxes[dest].put(obj)
            """,
            path="src/repro/mpi/loose.py",
        )
        assert diags == []

    def test_checked_entry_point_clean(self):
        assert lint(
            """
            class SafeComm:
                def send(self, obj, dest, tag=0):
                    self._check_peer(dest)
                    self._check_user_tag(tag)
                    self._boxes[dest].put(obj)
            """,
            path="src/repro/mpi/safe.py",
        ) == []

    def test_delegating_entry_point_clean(self):
        assert lint(
            """
            class SafeComm:
                def isend(self, obj, dest, tag=0):
                    self.send(obj, dest, tag)
                    return Request(done=True)
            """,
            path="src/repro/mpi/safe.py",
        ) == []

    def test_abstract_declaration_exempt(self):
        assert lint(
            """
            class Comm:
                def send(self, obj, dest, tag=0):
                    raise NotImplementedError
            """,
            path="src/repro/mpi/api.py",
        ) == []

    def test_rule_scoped_to_mpi_tree(self):
        assert lint(
            """
            class Mailer:
                def send(self, obj, dest, tag=0):
                    post(obj, dest)
            """,
            path="src/repro/util/mailer.py",
        ) == []


class TestSuppression:
    """One hazard, one id: one pragma on the flagged line suffices."""

    CODE = """
        import time

        class Thing(Component):
            def on_message(self, ctx, port, payload):
                x = time.time()  # repro-lint: disable={rule}
    """

    def test_line_suppression(self):
        assert lint(self.CODE.format(rule="repo.wall-clock")) == []

    def test_disable_all(self):
        assert lint(self.CODE.format(rule="all")) == []

    def test_unrelated_suppression_does_not_hide(self):
        diags = lint(self.CODE.format(rule="repo.public-docstring"))
        assert rules(diags) == ["repo.wall-clock"]


class TestSyntaxErrorHandling:
    def test_unparsable_module_reported_not_raised(self):
        diags = lint_source("def broken(:\n", "pkg/broken.py")
        assert rules(diags) == ["repo.syntax"]


class TestRuleTable:
    def test_table_is_exactly_the_ids_the_checkers_emit(self):
        """``--list-rules`` parity: a rule id is a string literal in a
        checker's source, so the table can be held equal to them."""
        analysis = Path(__file__).resolve().parent.parent / "src/repro/analysis"
        rule_id = re.compile(r"(graph|state|repo)\.[a-z-]+")
        emitted = set()
        for path in analysis.rglob("*.py"):
            if path.name == "diagnostics.py":  # the table itself
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if rule_id.fullmatch(node.value):
                        emitted.add(node.value)
        assert emitted == set(RULES)
        assert len(RULES) == 22


class TestRepositoryIsClean:
    def test_src_tree_has_zero_diagnostics(self):
        root = Path(__file__).resolve().parent.parent / "src"
        report = lint_tree(root)
        assert len(report) == 0, report.render()


class TestStoreBounds:
    """Retired: repo.store-bounds (``test_negative_day_rejected`` and
    ``test_bad_shard_and_block_config_rejected`` pin the behaviour)."""

    def test_unchecked_entry_point_fires(self):
        diags = lint(
            """
            class LooseSegment:
                def read_block(self, block):
                    return self._blocks[block]
            """,
            path="src/repro/store/loose.py",
        )
        assert diags == []

    def test_checked_entry_point_clean(self):
        assert lint(
            """
            class SafeSegment:
                def read_block(self, block):
                    self._check_block(block)
                    return self._blocks[block]
            """,
            path="src/repro/store/safe.py",
        ) == []

    def test_delegating_entry_point_clean(self):
        assert lint(
            """
            class SafeReader:
                def day_quotes(self, day):
                    return merge(self.scan(days=[day]))
            """,
            path="src/repro/store/safe.py",
        ) == []

    def test_abstract_declaration_exempt(self):
        assert lint(
            """
            class Reader:
                def scan(self, columns=None):
                    raise NotImplementedError
            """,
            path="src/repro/store/api.py",
        ) == []

    def test_rule_scoped_to_store_tree(self):
        assert lint(
            """
            class Elsewhere:
                def read_block(self, block):
                    return self._blocks[block]
            """,
            path="src/repro/taq/elsewhere.py",
        ) == []


class TestStatefulSnapshot:
    def test_mutation_outside_init_fires(self):
        diags = lint(
            """
            class Counter(Component):
                def on_message(self, ctx, port, payload):
                    self.count = self.count + 1
            """
        )
        assert rules(diags) == ["repo.stateful-snapshot"]
        assert "snapshot" in diags[0].message

    def test_mutable_container_in_init_fires(self):
        diags = lint(
            """
            class Buffer(Component):
                def __init__(self):
                    super().__init__(name="buffer")
                    self._rows = []
            """
        )
        assert rules(diags) == ["repo.stateful-snapshot"]

    def test_both_methods_clean(self):
        assert lint(
            """
            class Buffer(Component):
                def __init__(self):
                    super().__init__(name="buffer")
                    self._rows = []

                def snapshot(self):
                    return {"rows": list(self._rows)}

                def restore(self, state):
                    self._rows = list(state["rows"])
            """
        ) == []

    def test_snapshot_without_restore_fires(self):
        diags = lint(
            """
            class Half(Component):
                def __init__(self):
                    self._rows = []

                def snapshot(self):
                    return {"rows": list(self._rows)}
            """
        )
        assert rules(diags) == ["repo.stateful-snapshot"]

    def test_stateless_component_clean(self):
        assert lint(
            """
            class Relay(Component):
                def __init__(self):
                    super().__init__(name="relay")
                    self.scale = 2.0

                def on_message(self, ctx, port, payload):
                    ctx.emit("out", payload * self.scale)
            """
        ) == []

    def test_non_component_class_ignored(self):
        assert lint(
            """
            class Accumulator:
                def __init__(self):
                    self._rows = []

                def add(self, row):
                    self._rows.append(row)
                    self.dirty = True
            """
        ) == []

    def test_suppression_comment_works(self):
        assert lint(
            """
            class Ephemeral(Component):  # repro-lint: disable=repo.stateful-snapshot
                def __init__(self):
                    self._rows = []
            """
        ) == []


class TestObsBounded:
    """Retired: repo.obs-bounded (``test_ring_capacity_bounds_memory`` and
    ``test_ring_bounds_memory_but_keeps_stream_indices`` pin the rings)."""

    LIVE = "src/repro/obs/live/mod.py"

    def test_unbounded_append_fires_in_live_tree(self):
        diags = lint(
            """
            class Sampler:
                def __init__(self):
                    self.events = []

                def tick(self, ev):
                    self.events.append(ev)
            """,
            path=self.LIVE,
        )
        assert diags == []

    def test_ring_backed_attr_clean(self):
        assert lint(
            """
            class Sampler:
                def __init__(self):
                    self.events = EventRing(600)
                    self.values = rings.SeriesRing(600)

                def tick(self, ev, t, v):
                    self.events.append(ev)
                    self.values.push(t, v)
            """,
            path=self.LIVE,
        ) == []

    def test_extend_also_fires(self):
        diags = lint(
            """
            class Hub:
                def __init__(self):
                    self.frames = []

                def flush(self, more):
                    self.frames.extend(more)
            """,
            path=self.LIVE,
        )
        assert diags == []

    def test_outside_live_tree_ignored(self):
        assert lint(
            """
            class Sampler:
                def __init__(self):
                    self.events = []

                def tick(self, ev):
                    self.events.append(ev)
            """,
            path="src/repro/taq/mod.py",
        ) == []

    def test_suppression_comment_works(self):
        assert lint(
            """
            class Monitor:
                def __init__(self):
                    self.rules = []

                def add(self, rule):
                    self.rules.append(rule)  # repro-lint: disable=repo.obs-bounded
            """,
            path=self.LIVE,
        ) == []

class TestPublicDocstring:
    """The corr/backtest packages must document their public surface."""

    DOCUMENTED = '''
        """Module docstring."""

        class Engine:
            """Class docstring."""

            def run(self):
                """Method docstring."""

            def _internal(self):
                return 1

        def helper():
            """Function docstring."""
    '''

    def test_missing_module_docstring_fires(self):
        diags = lint("x = 1\n", path="src/repro/corr/mod.py")
        assert rules(diags) == ["repo.public-docstring"]
        assert diags[0].severity is Severity.ERROR
        assert "module" in diags[0].message

    def test_missing_class_function_method_fire(self):
        diags = lint(
            '''
            """Module docstring."""

            class Engine:
                def run(self):
                    """Documented."""

            def helper():
                pass
            ''',
            path="src/repro/backtest/mod.py",
        )
        assert rules(diags) == [
            "repo.public-docstring", "repo.public-docstring"
        ]
        assert "'Engine'" in diags[0].message
        assert "'helper'" in diags[1].message

    def test_documented_module_clean(self):
        assert lint(self.DOCUMENTED, path="src/repro/corr/mod.py") == []

    def test_private_names_exempt(self):
        assert lint(
            '''
            """Module docstring."""

            def _private():
                pass

            class _Hidden:
                def run(self):
                    pass
            ''',
            path="src/repro/corr/mod.py",
        ) == []

    def test_rule_scoped_to_corr_and_backtest(self):
        assert lint("x = 1\n", path="src/repro/taq/mod.py") == []
        assert lint("x = 1\n", path="src/repro/obs/mod.py") == []

    def test_suppression_works(self):
        diags = lint(
            '''
            """Module docstring."""

            def helper():  # repro-lint: disable=repo.public-docstring
                pass
            ''',
            path="src/repro/corr/mod.py",
        )
        assert diags == []


class TestServeBounded:
    """Retired: repo.serve-bounded (every bound has a behaviour test in
    ``tests/test_serve_sessions.py``: the audit ring, the 429s, pruning)."""

    SERVE = "src/repro/serve/mod.py"

    def test_unbounded_append_fires(self):
        diags = lint(
            """
            class Session:
                def __init__(self):
                    self.audit = []

                def record(self, entry):
                    self.audit.append(entry)
            """,
            path=self.SERVE,
        )
        assert diags == []

    def test_ring_backed_attr_clean(self):
        assert lint(
            """
            class Session:
                def __init__(self):
                    self.audit = EventRing(1024)

                def record(self, entry):
                    self.audit.append(entry)
            """,
            path=self.SERVE,
        ) == []

    def test_queue_without_maxsize_fires(self):
        diags = lint(
            """
            import queue

            class Session:
                def __init__(self):
                    self.commands = queue.Queue()
            """,
            path=self.SERVE,
        )
        assert diags == []

    def test_queue_with_zero_maxsize_fires(self):
        diags = lint(
            """
            import queue

            class Session:
                def __init__(self):
                    self.commands = queue.Queue(maxsize=0)
            """,
            path=self.SERVE,
        )
        assert diags == []

    def test_queue_with_maxsize_clean(self):
        assert lint(
            """
            import queue

            class Session:
                def __init__(self, slots):
                    self.commands = queue.Queue(maxsize=slots)
                    self.other = queue.Queue(32)
            """,
            path=self.SERVE,
        ) == []

    def test_simple_queue_always_fires(self):
        diags = lint(
            """
            import queue

            class Session:
                def __init__(self):
                    self.commands = queue.SimpleQueue()
            """,
            path=self.SERVE,
        )
        assert diags == []

    def test_deque_with_maxlen_clean_without_fires(self):
        diags = lint(
            """
            from collections import deque

            class Session:
                def __init__(self):
                    self.recent = deque(maxlen=64)
                    self.all_time = deque()

                def push(self, x):
                    self.recent.append(x)
                    self.all_time.append(x)
            """,
            path=self.SERVE,
        )
        assert diags == []

    def test_dict_growth_without_eviction_fires(self):
        diags = lint(
            """
            class Manager:
                def __init__(self):
                    self.sessions = {}

                def submit(self, sid, session):
                    self.sessions[sid] = session
            """,
            path=self.SERVE,
        )
        assert diags == []

    def test_dict_growth_with_eviction_clean(self):
        assert lint(
            """
            class Manager:
                def __init__(self):
                    self.sessions = {}

                def submit(self, sid, session):
                    self.sessions[sid] = session

                def prune(self, sid):
                    del self.sessions[sid]
            """,
            path=self.SERVE,
        ) == []

    def test_pop_counts_as_eviction(self):
        assert lint(
            """
            class Manager:
                def __init__(self):
                    self.jobs = {}

                def put(self, k, v):
                    self.jobs[k] = v

                def take(self, k):
                    return self.jobs.pop(k)
            """,
            path=self.SERVE,
        ) == []

    def test_outside_serve_tree_ignored(self):
        assert lint(
            """
            class Manager:
                def __init__(self):
                    self.items = []

                def add(self, x):
                    self.items.append(x)
            """,
            path="src/repro/taq/mod.py",
        ) == []

    def test_suppression_comment_works(self):
        assert lint(
            """
            class Manager:
                def __init__(self):
                    self.caps = {}

                def set(self, user, v):
                    self.caps[user] = v  # repro-lint: disable=repo.serve-bounded
            """,
            path=self.SERVE,
        ) == []
