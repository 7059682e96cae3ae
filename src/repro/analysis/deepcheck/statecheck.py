"""statecheck — static coverage of the snapshot()/restore() contract.

The crash-recovery invariant (recovered run bitwise-identical to the
fault-free run) holds only if every piece of run state a component
mutates round-trips through its checkpoint.  statecheck proves the
structural half of that statically, per :class:`Component` subclass:

* ``state.snapshot-missing`` — an instance attribute is mutated in run
  scope (any handler or helper reachable from one, excluding
  ``__init__`` and init-only private helpers) but never read by
  ``snapshot()`` (following helper calls and properties);
* ``state.restore-missing`` — an attribute snapshot captures is never
  re-assigned by ``restore()`` (following helper calls);
* ``state.key-unread`` — a literal key in the snapshot dict that
  ``restore()`` never reads (dead checkpoint weight), except protocol
  keys the supervisor reads externally (``watermark``);
* ``state.key-unknown`` — ``restore()`` reads a key ``snapshot()``
  never produces (KeyError on the recovery path);
* ``state.live-alias`` — the snapshot dict stores a bare reference to a
  mutable attribute, or ``restore()`` installs one without copying:
  the checkpoint then aliases live state and a later mutation (or a
  second restore attempt) corrupts it.

The class-level case comes first: ``repo.stateful-snapshot`` — a
component that carries run state (mutates an attribute in run scope, or
owns a mutable container) without implementing both ``snapshot()`` and
``restore()``; the supervisor would silently lose its state across a
recovery.  A class with no ``snapshot()`` gets no further checks.
"""

from __future__ import annotations

import ast
from collections import Counter

from repro.analysis.diagnostics import Diagnostic, Finding, Severity
from repro.analysis.deepcheck.core import (
    ClassInfo,
    ModuleIndex,
    is_self_attr,
    mutable_attrs,
)

#: Snapshot keys read by the *supervisor*, not by ``restore()`` — the
#: checkpoint protocol's out-of-band channel (epoch watermarks).
PROTOCOL_KEYS = frozenset({"watermark"})


def _snapshot_dict_items(fn: ast.FunctionDef) -> list[tuple[str, ast.expr, int]] | None:
    """(key, value expr, line) per literal key in the snapshot dict.

    Handles ``return {...}`` directly and the ``d = {...}; d["k"] = v;
    return d`` shape.  Returns ``None`` when no dict literal is visible
    (opaque snapshot — key analysis is skipped, not failed).
    """
    items: list[tuple[str, ast.expr, int]] = []
    named_dicts: dict[str, list[tuple[str, ast.expr, int]]] = {}
    saw_literal = False

    def collect(d: ast.Dict) -> list[tuple[str, ast.expr, int]]:
        out = []
        for k, v in zip(d.keys, d.values):
            if isinstance(k, ast.Constant) and isinstance(k.value, str):
                out.append((k.value, v, k.lineno))
        return out

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    named_dicts[target.id] = collect(node.value)
                    saw_literal = True
        elif isinstance(node, ast.Assign):
            # d["k"] = v onto a tracked dict
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in named_dicts
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    named_dicts[target.value.id].append(
                        (target.slice.value, node.value, target.lineno)
                    )
        elif isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Dict):
                items.extend(collect(node.value))
                saw_literal = True
            elif (
                isinstance(node.value, ast.Name)
                and node.value.id in named_dicts
            ):
                items.extend(named_dicts[node.value.id])
    if not saw_literal:
        return None
    return items


def _state_param(fn: ast.FunctionDef) -> str | None:
    """The name of restore()'s state argument (first non-self param)."""
    args = [a.arg for a in fn.args.args if a.arg != "self"]
    return args[0] if args else None


def _restore_key_reads(fn: ast.FunctionDef) -> set[str]:
    """Literal keys restore() reads: ``state["k"]``, ``.get("k")``, ``.pop("k")``."""
    param = _state_param(fn)
    if param is None:
        return set()
    out: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            out.add(node.slice.value)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("get", "pop")
                and isinstance(func.value, ast.Name)
                and func.value.id == param
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                out.add(node.args[0].value)
    return out


def _restore_alias_assigns(
    fn: ast.FunctionDef, mutable: set[str]
) -> list[tuple[str, int]]:
    """``self.x = state[...]`` (bare, uncopied) for mutable x — directly
    or through a local bound only to ``state[...]``/``state.get(...)``
    (``v = state["k"]; self.x = v``)."""
    param = _state_param(fn)
    if param is None:
        return []

    def is_state_ref(expr: ast.expr) -> bool:
        if (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == param
        ):
            return True
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "get"
            and isinstance(expr.func.value, ast.Name)
            and expr.func.value.id == param
        ):
            return True
        return False

    # A local is the state's object if every binding of it is
    # ``v = state[...]`` (``v = v.copy()`` anywhere absolves it).
    from_state = Counter(
        target.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Assign) and is_state_ref(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    )
    stores = Counter(
        node.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    )
    aliases = {name for name, n in from_state.items() if stores[name] == n}

    out = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = is_self_attr(target)
                if attr is not None and attr in mutable and (
                    is_state_ref(node.value)
                    or (
                        isinstance(node.value, ast.Name)
                        and node.value.id in aliases
                    )
                ):
                    out.append((attr, node.lineno))
    return out


def check_class(index: ModuleIndex, cls: ClassInfo) -> list[Finding]:
    """All statecheck findings for one Component subclass."""
    methods = index.resolved_methods(cls, stop_at="Component")
    findings: list[Finding] = []
    run_roots = [m for m in index.run_scope(cls)
                 if m not in ("snapshot", "restore")]
    mutated = index.attrs_mutated_transitive(cls, run_roots)
    mutable = mutable_attrs(index, cls)
    cls_line = cls.lineno

    if not {"snapshot", "restore"} <= set(methods) and (mutated or mutable):
        sample = ", ".join(sorted(mutated | mutable)[:4])
        findings.append(Finding(
            "repo.stateful-snapshot", Severity.ERROR, cls_line,
            f"stateful component {cls.name} (mutates {sample}) does not "
            f"implement both snapshot() and restore()",
            hint="implement both so checkpoint/restart recovery preserves "
                 "the component's state, or suppress on the class line if "
                 "the state is genuinely derivable",
        ))
    if "snapshot" not in methods:
        return findings
    snapshot_fn, _ = methods["snapshot"]
    restore_hit = methods.get("restore")
    snap_reads = index.attrs_read_transitive(cls, ["snapshot"])

    for attr in sorted(mutated - snap_reads):
        findings.append(Finding(
            "state.snapshot-missing", Severity.ERROR, cls_line,
            f"{cls.name}: attribute `self.{attr}` is mutated at run time "
            f"but snapshot() never reads it — crash recovery silently "
            f"loses it",
            hint="capture it in snapshot() (copying if mutable) and "
                 "reinstall it in restore()",
        ))

    if restore_hit is not None:
        restore_fn, _ = restore_hit
        restore_assigns = index.attrs_assigned_transitive(cls, ["restore"])
        for attr in sorted((mutated & snap_reads) - restore_assigns):
            findings.append(Finding(
                "state.restore-missing", Severity.ERROR,
                restore_fn.lineno,
                f"{cls.name}: snapshot() captures `self.{attr}` but "
                f"restore() never assigns it — the recovered component "
                f"keeps its freshly-constructed value",
                hint="assign it in restore() from the state dict",
            ))

        items = _snapshot_dict_items(snapshot_fn)
        if items is not None:
            produced = {k for k, _v, _ln in items}
            consumed = _restore_key_reads(restore_fn)
            if consumed:  # opaque restore (e.g. self.__dict__.update) -> skip
                for key in sorted(produced - consumed - PROTOCOL_KEYS):
                    line = next(ln for k, _v, ln in items if k == key)
                    findings.append(Finding(
                        "state.key-unread", Severity.ERROR, line,
                        f"{cls.name}: snapshot key {key!r} is never read "
                        f"by restore() — dead checkpoint weight or a "
                        f"missed reinstall",
                        hint="read it in restore() or drop it from "
                             "snapshot() (protocol keys like 'watermark' "
                             "are exempt)",
                    ))
                for key in sorted(consumed - produced):
                    findings.append(Finding(
                        "state.key-unknown", Severity.ERROR,
                        restore_fn.lineno,
                        f"{cls.name}: restore() reads key {key!r} that "
                        f"snapshot() never produces — KeyError on the "
                        f"recovery path",
                        hint="produce it in snapshot() or drop the read",
                    ))
            for key, value, line in items:
                attr = is_self_attr(value)
                if attr is not None and attr in mutable:
                    findings.append(Finding(
                        "state.live-alias", Severity.ERROR, line,
                        f"{cls.name}: snapshot key {key!r} stores a live "
                        f"reference to mutable `self.{attr}` — later "
                        f"mutations corrupt the checkpoint",
                        hint="store a copy (dict(...)/list(...)/"
                             "copy.deepcopy) instead of the attribute "
                             "itself",
                    ))

        for attr, line in _restore_alias_assigns(restore_fn, mutable):
            findings.append(Finding(
                "state.live-alias", Severity.ERROR, line,
                f"{cls.name}: restore() installs `state[...]` into "
                f"mutable `self.{attr}` without copying — a failed "
                f"retry after restore corrupts the checkpoint",
                hint="copy the value out of the state dict "
                     "(dict(...)/list(...)/copy.deepcopy)",
            ))
    return findings


def check_state(index: ModuleIndex) -> list[Diagnostic]:
    """Run statecheck over every Component subclass in the index."""
    by_module: dict[str, list[Finding]] = {}
    for cls in index.component_classes():
        by_module.setdefault(cls.module.relpath, []).extend(
            check_class(index, cls)
        )
    return index.located(by_module)
