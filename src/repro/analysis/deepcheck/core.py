"""The AST substrate every source-level rule reads.

Everything here is *bounded* static analysis: no symbolic execution, no
type inference — just the structural facts the rules need, computed
from one parse of each module:

* :class:`ModuleIndex` — every module under a root, parsed once, with
  per-module classes, functions and import aliases (modules that do not
  parse are kept as :attr:`ModuleIndex.syntax_errors`);
* class method resolution (:meth:`ModuleIndex.resolved_methods`) walks
  base classes *within the index* in MRO-ish order, so rules see
  inherited ``snapshot()``/helpers the way the runtime does;
* a per-class **attribute-mutation model** (:func:`attr_mutations`)
  that recognises ``self.x = ...``, augmented assigns, ``del self.x``,
  ``self.x[k] = ...`` and mutating container calls (``.append``,
  ``.update``, ``.setdefault``, ...);
* bounded transitive closures over ``self``-method calls (and property
  reads), so facts established in helpers flow to the handler/snapshot
  that reaches them;
* :func:`resolved_call_name` — a call target's fully-qualified name
  through the module's import tables.

The model is deliberately conservative in both directions and the
rules say so in their hints: what it cannot prove it skips.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import (
    Diagnostic,
    Finding,
    findings_to_diagnostics,
    parse_suppressions,
)

#: Container-method names treated as mutations of their receiver.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "add", "insert",
    "update", "setdefault", "pop", "popleft", "popitem", "clear",
    "remove", "discard", "sort", "reverse", "push",
})

#: Constructors/literals that build a mutable container.
MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter",
})

#: Calls whose depth is bounded when chasing helpers interprocedurally.
CALL_DEPTH_LIMIT = 8


def base_name(node: ast.expr) -> str | None:
    """The trailing identifier of a Name/Attribute chain (``a.b.c`` → c)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def is_self_attr(node: ast.expr) -> str | None:
    """``self.<attr>`` → attr name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def is_mutable_ctor(node: ast.expr) -> bool:
    """Does this initialiser expression build a mutable container?"""
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = base_name(node.func)
        return name in MUTABLE_CTORS
    return False


@dataclass
class ClassInfo:
    """One class definition as the analyzers see it."""

    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    properties: frozenset[str] = frozenset()

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ModuleInfo:
    """One parsed module: AST plus the lookup tables analyzers need."""

    relpath: str
    tree: ast.Module
    lines: list[str]
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: local alias -> imported module name (``import numpy as np``).
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> (module, original name) (``from x import y [as z]``).
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)


def _index_module(relpath: str, text: str) -> ModuleInfo:
    tree = ast.parse(text, filename=relpath)
    info = ModuleInfo(relpath=relpath, tree=tree, lines=text.splitlines())
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                info.from_imports[alias.asname or alias.name] = (
                    node.module, alias.name,
                )
        elif isinstance(node, ast.FunctionDef):
            info.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            methods: dict[str, ast.FunctionDef] = {}
            props: set[str] = set()
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    methods[stmt.name] = stmt
                    for deco in stmt.decorator_list:
                        if base_name(deco) == "property":
                            props.add(stmt.name)
            bases = tuple(
                name for name in (base_name(b) for b in node.bases) if name
            )
            info.classes[node.name] = ClassInfo(
                name=node.name, module=info, node=node, bases=bases,
                methods=methods, properties=frozenset(props),
            )
    return info


class ModuleIndex:
    """All modules under one root, parsed once, with cross-module lookup."""

    def __init__(
        self,
        modules: dict[str, ModuleInfo],
        syntax_errors: dict[str, SyntaxError] | None = None,
    ):
        self.modules = modules
        #: reported path -> the error, for modules that do not parse.
        self.syntax_errors = syntax_errors or {}
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        for mod in modules.values():
            for cls in mod.classes.values():
                self.classes_by_name.setdefault(cls.name, []).append(cls)
        self._mro_cache: dict[tuple[str, str], tuple[ClassInfo, ...]] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "ModuleIndex":
        """Index in-memory sources: {reported path: module text}."""
        modules = {}
        syntax_errors = {}
        for relpath in sorted(sources):
            try:
                modules[relpath] = _index_module(relpath, sources[relpath])
            except SyntaxError as exc:
                syntax_errors[relpath] = exc
        return cls(modules, syntax_errors)

    @classmethod
    def from_tree(cls, root: Path) -> "ModuleIndex":
        """Index every ``*.py`` under ``root`` (paths relative to its parent)."""
        root = Path(root)
        sources = {}
        for p in sorted(root.rglob("*.py")):
            if "__pycache__" in p.parts:
                continue
            rel = str(p.relative_to(root.parent))
            sources[rel] = p.read_text(encoding="utf-8")
        return cls.from_sources(sources)

    # -- class resolution ----------------------------------------------------

    def resolve_class(
        self, name: str, near: ModuleInfo | None = None
    ) -> ClassInfo | None:
        """The class called ``name``, preferring ``near``'s own/imported one."""
        if near is not None:
            if name in near.classes:
                return near.classes[name]
            imported = near.from_imports.get(name)
            if imported is not None:
                name = imported[1]
        candidates = self.classes_by_name.get(name)
        if not candidates:
            return None
        return candidates[0]

    def mro(self, cls: ClassInfo) -> tuple[ClassInfo, ...]:
        """Linearised bases within the index (the class itself first)."""
        key = (cls.module.relpath, cls.name)
        cached = self._mro_cache.get(key)
        if cached is not None:
            return cached
        order: list[ClassInfo] = []
        seen: set[tuple[str, str]] = set()

        def visit(c: ClassInfo) -> None:
            ckey = (c.module.relpath, c.name)
            if ckey in seen:
                return
            seen.add(ckey)
            order.append(c)
            for bname in c.bases:
                b = self.resolve_class(bname, near=c.module)
                if b is not None:
                    visit(b)

        visit(cls)
        result = tuple(order)
        self._mro_cache[key] = result
        return result

    def is_component(self, cls: ClassInfo) -> bool:
        """Does the class (transitively) subclass something named Component?"""
        if cls.name == "Component":
            return False
        pending = list(cls.bases)
        seen: set[str] = set()
        while pending:
            bname = pending.pop()
            if bname in seen:
                continue
            seen.add(bname)
            if bname == "Component":
                return True
            b = self.resolve_class(bname, near=cls.module)
            if b is not None:
                pending.extend(b.bases)
        return False

    def component_classes(self) -> list[ClassInfo]:
        """Every Component subclass in the index, in deterministic order."""
        out = []
        for relpath in sorted(self.modules):
            for name in sorted(self.modules[relpath].classes):
                cls = self.modules[relpath].classes[name]
                if self.is_component(cls):
                    out.append(cls)
        return out

    def resolved_methods(
        self, cls: ClassInfo, stop_at: str | None = "Component"
    ) -> dict[str, tuple[ast.FunctionDef, ClassInfo]]:
        """Method table after inheritance: name → (def, defining class).

        ``stop_at`` names a root base whose methods are *excluded* (the
        abstract ``Component`` defaults don't count as implementations).
        """
        table: dict[str, tuple[ast.FunctionDef, ClassInfo]] = {}
        for c in self.mro(cls):
            if stop_at is not None and c.name == stop_at:
                continue
            for mname, fn in c.methods.items():
                table.setdefault(mname, (fn, c))
        return table

    # -- interprocedural closures over self-methods --------------------------

    def _expand(
        self,
        cls: ClassInfo,
        roots: list[str],
        collect,
        follow_property_reads: bool = False,
    ) -> None:
        """Walk ``self.m()`` calls (and optionally property reads) from
        ``roots``, invoking ``collect(fn)`` on each visited method body."""
        methods = self.resolved_methods(cls, stop_at=None)
        pending = [(name, 0) for name in roots]
        visited: set[str] = set()
        while pending:
            name, depth = pending.pop()
            if name in visited or name not in methods:
                continue
            visited.add(name)
            fn = methods[name][0]
            collect(fn)
            if depth >= CALL_DEPTH_LIMIT:
                continue
            for callee in self_method_calls(fn):
                pending.append((callee, depth + 1))
            if follow_property_reads:
                for attr in self_attr_reads(fn):
                    if attr in methods:
                        pending.append((attr, depth + 1))

    def attrs_mutated_transitive(
        self, cls: ClassInfo, roots: list[str]
    ) -> set[str]:
        """Instance attrs mutated in ``roots`` or any helper they reach."""
        out: set[str] = set()
        self._expand(cls, roots, lambda fn: out.update(attr_mutations(fn)))
        return out

    def attrs_read_transitive(
        self, cls: ClassInfo, roots: list[str]
    ) -> set[str]:
        """Instance attrs read from ``roots``, chasing helpers *and*
        properties (``self.prop`` expands to the property body's reads)."""
        out: set[str] = set()
        self._expand(
            cls, roots, lambda fn: out.update(self_attr_reads(fn)),
            follow_property_reads=True,
        )
        return out

    def attrs_assigned_transitive(
        self, cls: ClassInfo, roots: list[str]
    ) -> set[str]:
        """Instance attrs assigned in ``roots`` or any helper they reach."""
        out: set[str] = set()
        self._expand(cls, roots, lambda fn: out.update(attr_assignments(fn)))
        return out

    def init_only_methods(self, cls: ClassInfo) -> set[str]:
        """Private helpers reachable *only* from ``__init__``.

        Mutations inside them are construction wiring, not run state.  A
        public method (no leading underscore) is assumed externally
        callable and never init-only.
        """
        methods = self.resolved_methods(cls, stop_at=None)
        callers: dict[str, set[str]] = {name: set() for name in methods}
        for name, (fn, _owner) in methods.items():
            for callee in self_method_calls(fn):
                if callee in callers:
                    callers[callee].add(name)
        init_only = set()
        changed = True
        while changed:
            changed = False
            for name in methods:
                if name in init_only or name == "__init__":
                    continue
                if not name.startswith("_") or name.startswith("__"):
                    continue
                callsites = callers[name]
                if callsites and callsites <= ({"__init__"} | init_only):
                    init_only.add(name)
                    changed = True
        return init_only

    def run_scope(
        self, cls: ClassInfo
    ) -> dict[str, tuple[ast.FunctionDef, ClassInfo]]:
        """The methods that execute while a component runs: everything
        the class resolves to (inherited included) except ``__init__``
        and the private helpers only it reaches."""
        init_scope = {"__init__"} | self.init_only_methods(cls)
        return {
            name: hit
            for name, hit in self.resolved_methods(cls, stop_at=None).items()
            if name not in init_scope
        }

    # -- reporting -----------------------------------------------------------

    def located(self, by_module: dict[str, list[Finding]]) -> list[Diagnostic]:
        """Findings grouped by module path → diagnostics, each module's
        own ``# repro-lint: disable=`` pragmas applied, in path order."""
        out: list[Diagnostic] = []
        for relpath in sorted(by_module):
            suppressed = parse_suppressions(self.modules[relpath].lines)
            out.extend(
                findings_to_diagnostics(by_module[relpath], relpath, suppressed)
            )
        return out


# -- per-function AST facts ---------------------------------------------------


def resolved_call_name(mod: ModuleInfo, func: ast.expr) -> str | None:
    """The fully-qualified name of a call target, via import tables.

    ``time.perf_counter()`` under ``import time`` → ``time.perf_counter``;
    ``perf_counter()`` under ``from time import perf_counter`` → same;
    ``datetime.now()`` under ``from datetime import datetime`` →
    ``datetime.datetime.now``.  ``None`` for anything whose root is not a
    known import (method calls on local objects never match, so
    ``self.clock.time()`` resolves to nothing).
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.reverse()
    if node.id in mod.module_aliases:
        return ".".join([mod.module_aliases[node.id], *parts])
    if node.id in mod.from_imports:
        return ".".join([*mod.from_imports[node.id], *parts])
    return None


def attr_assignments(fn: ast.FunctionDef) -> set[str]:
    """Attrs directly assigned (``self.x = ...``, aug/ann assigns)."""
    out: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Tuple):
                elements = target.elts
            else:
                elements = [target]
            for el in elements:
                attr = is_self_attr(el)
                if attr is not None:
                    out.add(attr)
    return out


def attr_mutations(fn: ast.FunctionDef) -> set[str]:
    """Attrs *mutated* in one function body: assignments, ``del``,
    item writes (``self.x[k] = v``) and container-mutator calls
    (``self.x.append(...)``, ``self.x[k].update(...)``)."""
    out = attr_assignments(fn)
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets if isinstance(node, (ast.Assign, ast.Delete))
                else [node.target]
            )
            for target in targets:
                # self.x[k] = / del self.x[k] / del self.x
                if isinstance(target, ast.Subscript):
                    attr = is_self_attr(target.value)
                    if attr is not None:
                        out.add(attr)
                attr = is_self_attr(target)
                if attr is not None:
                    out.add(attr)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS
            ):
                receiver = func.value
                # Unwrap one subscript layer: self.x[k].append(...).
                if isinstance(receiver, ast.Subscript):
                    receiver = receiver.value
                attr = is_self_attr(receiver)
                if attr is not None:
                    out.add(attr)
    return out


def self_attr_reads(fn: ast.FunctionDef) -> set[str]:
    """Attrs read (``Load`` context) anywhere in the body."""
    out: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            out.add(node.attr)
    return out


def self_method_calls(fn: ast.FunctionDef) -> set[str]:
    """Names of ``self.<m>(...)`` calls in the body."""
    out: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            attr = is_self_attr(node.func)
            if attr is not None:
                out.add(attr)
    return out


def mutable_attrs(index: ModuleIndex, cls: ClassInfo) -> set[str]:
    """Attrs that hold mutable containers: initialised to one in
    ``__init__`` (or an init-only helper), hit by a mutator call, or
    assigned an instance of an indexed class that defines ``copy()``."""
    methods = index.resolved_methods(cls, stop_at=None)
    out: set[str] = set()
    init_scope = {"__init__"} | index.init_only_methods(cls)
    for name in init_scope:
        hit = methods.get(name)
        if hit is None:
            continue
        for node in ast.walk(hit[0]):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    attr = is_self_attr(target)
                    if attr is not None and is_mutable_ctor(node.value):
                        out.add(attr)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                attr = is_self_attr(node.target)
                if attr is not None and is_mutable_ctor(node.value):
                    out.add(attr)
    for name, (fn, _owner) in methods.items():
        if name == "restore":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                # An object that checkpoints itself carries state.
                built = index.resolve_class(
                    base_name(node.value.func) or "", near=cls.module
                )
                if built is not None and "copy" in built.methods:
                    out.update(filter(None, map(is_self_attr, node.targets)))
            if name != "__init__" and isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                ):
                    attr = is_self_attr(func.value)
                    if attr is not None:
                        out.add(attr)
    return out
