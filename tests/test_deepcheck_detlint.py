"""What is left of detlint: its clock table and import-table resolution
now back the one clock rule, ``repo.wall-clock``, scoped to a
Component's run scope.

``det.unseeded-random`` / ``entropy`` / ``set-order`` / ``env-read``
and the call graph that scaled their severities are deleted (zero
findings on all 14 audited trees; what they guarded is what every
seeded-equality and thread == process test asserts).  Their fixtures
stay as a silence corpus: the lint pass must report nothing on them,
whatever the test's name says about the old rule.
"""

from pathlib import Path

from repro.analysis import lint_source
from repro.analysis.diagnostics import Severity

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def analyze(source: str, path: str = "repro/fixture.py") -> list:
    return lint_source(source, path)


def rules(diags) -> set:
    return {d.rule for d in diags}


class TestWallClock:
    def test_time_time_in_entry_point_is_error(self):
        diags = analyze('''
import time

class Stage(Component):
    def on_message(self, ctx, port, payload):
        return time.time()
''')
        assert [d.rule for d in diags] == ["repo.wall-clock"]
        assert diags[0].severity is Severity.ERROR

    def test_from_import_alias_resolved(self):
        diags = analyze('''
from time import perf_counter as pc

class Stage(Component):
    def generate(self, ctx):
        return pc()
''')
        assert rules(diags) == {"repo.wall-clock"}

    def test_datetime_now_flagged(self):
        diags = analyze('''
from datetime import datetime

class Stage(Component):
    def result(self):
        return datetime.now()
''')
        assert rules(diags) == {"repo.wall-clock"}

    def test_unreachable_site_is_warning(self):
        # No call graph, no reachability-scaled warnings: outside a
        # Component's run scope a clock read is not lint's business.
        diags = analyze('''
import time

def _internal_probe():
    return time.monotonic()
''')
        assert diags == []

    def test_method_on_local_object_not_flagged(self):
        # self.clock.time() is a seam, not an ambient read.
        diags = analyze('''
class Sim(Component):
    def __init__(self, clock):
        self.clock = clock
    def on_message(self, ctx, port, payload):
        return self.clock.time()
''')
        assert diags == []


class TestRandomness:
    def test_seeded_random_is_not_flagged(self):
        diags = analyze('''
import random

def run(seed):
    rng = random.Random(seed)
    return rng.random()
''')
        assert diags == []

    def test_unseeded_random_ctor_flagged(self):
        diags = analyze('''
import random

def run():
    rng = random.Random()
    return rng.random()
''')
        assert diags == []

    def test_global_random_module_flagged(self):
        diags = analyze('''
import random

def run():
    return random.random()
''')
        assert diags == []

    def test_entropy_sources_flagged(self):
        diags = analyze('''
import os
import uuid

def run():
    return os.urandom(8), uuid.uuid4()
''')
        assert diags == []

    def test_faults_plan_module_is_clean(self):
        # faults/plan.py draws only from seeded random.Random(seed).
        path = "repro/faults/plan.py"
        source = (SRC_ROOT / "faults" / "plan.py").read_text(encoding="utf-8")
        assert analyze(source, path) == []

    def test_sge_scheduler_is_clean_after_clock_seam(self):
        # The scheduler measures durations through the injectable
        # self._clock seam (tests/test_sge_scheduler.py drives it).
        path = "repro/sge/scheduler.py"
        source = (SRC_ROOT / "sge" / "scheduler.py").read_text(
            encoding="utf-8"
        )
        assert analyze(source, path) == []


class TestOrderingHazards:
    def test_set_iteration_flagged(self):
        diags = analyze('''
def run(items):
    for x in set(items):
        yield x
''')
        assert diags == []

    def test_sorted_set_not_flagged(self):
        diags = analyze('''
def run(items):
    for x in sorted(set(items)):
        yield x
''')
        assert diags == []

    def test_popitem_flagged_unless_ordereddict(self):
        diags = analyze('''
from collections import OrderedDict

class Cache:
    def __init__(self):
        self._entries = OrderedDict()
        self._plain = {}
    def evict(self):
        self._entries.popitem(last=False)   # proven OrderedDict: fine
    def bad(self):
        self._plain.popitem()
''')
        assert diags == []

    def test_id_flagged(self):
        diags = analyze('''
def run(objs):
    return sorted(objs, key=lambda o: id(o))
''')
        assert diags == []

    def test_env_read_flagged(self):
        diags = analyze('''
import os

def run():
    return os.environ["HOME"], os.getenv("USER")
''')
        assert diags == []


class TestSuppression:
    def test_pragma_silences_a_hazard_line(self):
        source = '''
import time

class Stage(Component):
    def on_message(self, ctx, port, payload):
        return time.time()  # repro-lint: disable=repo.wall-clock
'''
        assert analyze(source) == []
        assert len(analyze(source.replace("repo.wall-clock", "other"))) == 1
