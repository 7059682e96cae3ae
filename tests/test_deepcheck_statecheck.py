"""statecheck: snapshot()/restore() coverage proven on adversarial fixtures."""

from pathlib import Path

from repro.analysis.deepcheck import ModuleIndex, check_state

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

COMPONENT_BASE = '''
class Component:
    def __init__(self, name, input_ports=(), output_ports=()):
        self.name = name
        self.input_ports = input_ports
        self.output_ports = output_ports
    def snapshot(self):
        return None
    def restore(self, state):
        raise NotImplementedError
'''


def analyze(source: str) -> list:
    index = ModuleIndex.from_sources({
        "repro/marketminer/component.py": COMPONENT_BASE,
        "repro/fixture.py": (
            "from repro.marketminer.component import Component\n" + source
        ),
    })
    return check_state(index)


def rules(diags) -> set:
    return {d.rule for d in diags}


class TestSnapshotCoverage:
    def test_helper_mutation_missed_by_snapshot_is_flagged(self):
        # The ISSUE's canonical adversarial fixture: the handler mutates
        # self._buf only through a helper, and snapshot() forgets it.
        diags = analyze('''
class Leaky(Component):
    def __init__(self):
        super().__init__("leaky", input_ports=("in",))
        self._buf = []
        self._count = 0
    def on_message(self, ctx, port, payload):
        self._count += 1
        self._stash(payload)
    def _stash(self, payload):
        self._buf.append(payload)
    def snapshot(self):
        return {"count": self._count}
    def restore(self, state):
        self._count = state["count"]
''')
        missing = [d for d in diags if d.rule == "state.snapshot-missing"]
        assert len(missing) == 1
        assert "_buf" in missing[0].message

    def test_complete_component_is_clean(self):
        diags = analyze('''
import copy

class Covered(Component):
    def __init__(self):
        super().__init__("covered", input_ports=("in",))
        self._buf = []
        self._count = 0
    def on_message(self, ctx, port, payload):
        self._count += 1
        self._buf.append(payload)
    def snapshot(self):
        return {"buf": copy.deepcopy(self._buf), "count": self._count}
    def restore(self, state):
        self._buf = copy.deepcopy(state["buf"])
        self._count = state["count"]
''')
        assert diags == []

    def test_snapshot_read_through_property_counts(self):
        # CollectorBase idiom: snapshot reads a property whose body reads
        # the underlying attributes; restore assigns through a setter.
        diags = analyze('''
class Ranged(Component):
    def __init__(self):
        super().__init__("ranged")
        self._start = 0
        self._stop = None
    @property
    def interval_range(self):
        return (self._start, self._stop)
    def set_range(self, start, stop):
        self._start = start
        self._stop = stop
    def generate(self, ctx):
        self._start += 1
    def snapshot(self):
        return {"watermark": self.interval_range[1]}
    def restore(self, state):
        self.set_range(int(state["watermark"]), None)
''')
        assert "state.snapshot-missing" not in rules(diags)

    def test_init_only_helper_mutations_are_construction_not_state(self):
        diags = analyze('''
class Wired(Component):
    def __init__(self):
        super().__init__("wired", input_ports=("in",))
        self._table = {}
        self._wire()
        self._n = 0
    def _wire(self):
        self._table["k"] = 1
    def on_message(self, ctx, port, payload):
        self._n += 1
    def snapshot(self):
        return {"n": self._n}
    def restore(self, state):
        self._n = state["n"]
''')
        # _table is only touched at construction; only run state counts.
        assert diags == []

    def test_restore_missing_assignment_flagged(self):
        diags = analyze('''
class HalfRestored(Component):
    def __init__(self):
        super().__init__("half", input_ports=("in",))
        self._a = 0
        self._b = 0
    def on_message(self, ctx, port, payload):
        self._a += 1
        self._b += 1
    def snapshot(self):
        return {"a": self._a, "b": self._b}
    def restore(self, state):
        self._a = state["a"]
        b = state["b"]  # read but never installed
''')
        missing = [d for d in diags if d.rule == "state.restore-missing"]
        assert len(missing) == 1 and "_b" in missing[0].message


class TestKeySymmetry:
    def test_unread_key_flagged_but_watermark_exempt(self):
        diags = analyze('''
class Keys(Component):
    def __init__(self):
        super().__init__("keys", input_ports=("in",))
        self._n = 0
    def on_message(self, ctx, port, payload):
        self._n += 1
    def snapshot(self):
        return {"n": self._n, "debug": 1, "watermark": self._n}
    def restore(self, state):
        self._n = state["n"]
''')
        unread = [d for d in diags if d.rule == "state.key-unread"]
        assert len(unread) == 1
        assert "'debug'" in unread[0].message  # watermark not reported

    def test_unknown_key_read_flagged(self):
        diags = analyze('''
class Phantom(Component):
    def __init__(self):
        super().__init__("phantom", input_ports=("in",))
        self._n = 0
    def on_message(self, ctx, port, payload):
        self._n += 1
    def snapshot(self):
        return {"n": self._n}
    def restore(self, state):
        self._n = state["n"]
        self._m = state["missing"]
''')
        assert "state.key-unknown" in rules(diags)


class TestLiveAlias:
    def test_bare_mutable_reference_in_snapshot_flagged(self):
        diags = analyze('''
class Aliased(Component):
    def __init__(self):
        super().__init__("aliased", input_ports=("in",))
        self._buf = []
    def on_message(self, ctx, port, payload):
        self._buf.append(payload)
    def snapshot(self):
        return {"buf": self._buf}
    def restore(self, state):
        self._buf = list(state["buf"])
''')
        alias = [d for d in diags if d.rule == "state.live-alias"]
        assert len(alias) == 1 and "snapshot" in alias[0].message

    def test_uncopied_restore_of_mutable_flagged(self):
        diags = analyze('''
import copy

class RawRestore(Component):
    def __init__(self):
        super().__init__("raw", input_ports=("in",))
        self._buf = []
    def on_message(self, ctx, port, payload):
        self._buf.append(payload)
    def snapshot(self):
        return {"buf": copy.deepcopy(self._buf)}
    def restore(self, state):
        self._buf = state["buf"]
''')
        alias = [d for d in diags if d.rule == "state.live-alias"]
        assert len(alias) == 1 and "restore" in alias[0].message

    def test_copies_absolve_both_sides(self):
        diags = analyze('''
import copy

class Copied(Component):
    def __init__(self):
        super().__init__("copied", input_ports=("in",))
        self._buf = []
    def on_message(self, ctx, port, payload):
        self._buf.append(payload)
    def snapshot(self):
        return {"buf": copy.deepcopy(self._buf)}
    def restore(self, state):
        self._buf = copy.deepcopy(state["buf"])
''')
        assert diags == []


class TestSuppression:
    def test_pragma_silences_the_rule_on_the_class_line(self):
        diags = analyze('''
class Known(Component):  # repro-lint: disable=state.snapshot-missing
    def __init__(self):
        super().__init__("known", input_ports=("in",))
        self._scratch = 0
    def on_message(self, ctx, port, payload):
        self._scratch += 1
    def snapshot(self):
        return {}
    def restore(self, state):
        pass
''')
        assert "state.snapshot-missing" not in rules(diags)


class TestRealRepo:
    def _sources(self) -> dict:
        out = {}
        for p in sorted(SRC_ROOT.rglob("*.py")):
            if "__pycache__" in p.parts:
                continue
            out[str(p.relative_to(SRC_ROOT.parent))] = p.read_text(
                encoding="utf-8"
            )
        return out

    def test_repo_components_are_clean(self):
        index = ModuleIndex.from_sources(self._sources())
        assert check_state(index) == []

    def test_deleting_a_real_snapshot_key_fails_statically(self):
        # Acceptance criterion: removing any snapshot() key from a real
        # Figure-1 component must fail statecheck without running the
        # pipeline.
        sources = self._sources()
        target = "repro/marketminer/components/cleaning.py"
        broken = sources[target].replace(
            '            "total": self._total,\n', ""
        )
        assert broken != sources[target], "fixture key not found"
        sources[target] = broken
        index = ModuleIndex.from_sources(sources)
        diags = [d for d in check_state(index) if target in str(d.location)]
        assert "state.snapshot-missing" in rules(diags)
        assert "state.key-unknown" in rules(diags)


class TestSelfCopyingState:
    """An attribute built from an indexed class that defines ``copy()``
    (the strategy's cell bank) is live state like a container."""

    BANK = '''
class Bank:
    def __init__(self):
        self.rows = None
    def step(self, x):
        self.rows = x
    def copy(self):
        return Bank()

class Banked(Component):
    def __init__(self):
        super().__init__("banked", input_ports=("in",))
        self._bank = None
    def on_message(self, ctx, port, payload):
        if self._bank is None:
            self._bank = Bank()
        self._bank.step(payload)
'''

    def test_bare_reference_flagged_both_ways(self):
        diags = analyze(self.BANK + '''
    def snapshot(self):
        return {"bank": self._bank}
    def restore(self, state):
        self._bank = state["bank"]
''')
        alias = [d for d in diags if d.rule == "state.live-alias"]
        assert len(alias) == 2

    def test_copies_absolve(self):
        diags = analyze(self.BANK + '''
    def snapshot(self):
        return {"bank": None if self._bank is None else self._bank.copy()}
    def restore(self, state):
        bank = state["bank"]
        self._bank = None if bank is None else bank.copy()
''')
        assert diags == []

    def test_restore_through_a_local_flagged(self):
        """``v = state["k"]`` then ``self.x = v`` installs the checkpoint's
        object as surely as ``self.x = state["k"]`` does."""
        for read in ('state["bank"]', 'state.get("bank")'):
            diags = analyze(self.BANK + f'''
    def snapshot(self):
        return {{"bank": None if self._bank is None else self._bank.copy()}}
    def restore(self, state):
        bank = {read}
        self._bank = bank
''')
            alias = [d for d in diags if d.rule == "state.live-alias"]
            assert len(alias) == 1 and "restore" in alias[0].message, read

    def test_local_rebound_to_a_copy_absolves(self):
        diags = analyze(self.BANK + '''
    def snapshot(self):
        return {"bank": None if self._bank is None else self._bank.copy()}
    def restore(self, state):
        bank = state["bank"]
        if bank is not None:
            bank = bank.copy()
        self._bank = bank
''')
        assert diags == []

    def test_bank_built_in_init_is_live_state(self):
        """The cleaning stage's filter bank exists from ``__init__`` on."""
        diags = analyze('''
class Bank:
    def __init__(self, n):
        self.rows = [0] * n
    def copy(self):
        return Bank(len(self.rows))

def step(records, bank):
    bank.rows[0] += 1

class Eager(Component):
    def __init__(self, n):
        super().__init__("eager", input_ports=("in",))
        self._bank = Bank(n)
    def on_message(self, ctx, port, payload):
        step(payload, self._bank)
    def snapshot(self):
        return {"bank": self._bank.copy()}
    def restore(self, state):
        bank = state["bank"]
        self._bank = bank
''')
        alias = [d for d in diags if d.rule == "state.live-alias"]
        assert len(alias) == 1 and "restore" in alias[0].message
