"""AST-based lint rules the repository holds itself to.

These are *project* rules, not general style: each one guards an
invariant another subsystem relies on.  Rule catalogue (ids prefixed
``repo.``):

===================  ========  =================================================
rule                 severity  fires when
===================  ========  =================================================
repo.wall-clock      error     a component handler (``generate`` /
                               ``on_message`` / ``on_stop``) calls wall-clock
                               time (``time.time``, ``datetime.now``, ...) —
                               handlers must use the session/grid clock so
                               replays are deterministic
repo.metric-name     warning   an obs metric name (``.counter()`` /
                               ``.gauge()`` / ``.histogram()`` / ``.timer()``
                               literal) does not follow the lowercase
                               dot-separated ``area.noun.unit`` convention
repo.bare-except     error     a bare ``except:`` clause (swallows
                               KeyboardInterrupt and hides rank failures)
repo.mutable-default error     a function parameter defaults to a mutable
                               literal (list/dict/set) or constructor
repo.mpi-bounds      error     a public ``repro.mpi`` point-to-point entry
                               point neither validates peer/tag bounds nor
                               delegates to one that does
repo.store-bounds    error     a ``repro.store`` read entry point
                               (``read_block`` / ``scan`` / ``day_quotes``)
                               neither validates its block/day/column
                               arguments nor delegates to a method that does
repo.stateful-       error     a ``Component`` subclass carries mutable
snapshot                       instance state but implements neither
                               ``snapshot()`` nor ``restore()`` — the
                               checkpoint/restart supervisor would silently
                               lose its state across a recovery
repo.obs-bounded     error     code under ``repro/obs/live/`` grows instance
                               state with ``self.<attr>.append/.extend`` where
                               ``<attr>`` is not an ``EventRing`` /
                               ``SeriesRing`` built in ``__init__`` — the live
                               plane's memory must stay bounded for
                               session-long sampling
repo.serve-bounded   error     code under ``repro/serve/`` accumulates
                               per-request/per-session state unboundedly: a
                               ``self.<attr>.append/.extend/.add`` on an attr
                               that is not a ring / capped queue / capped
                               deque, a ``Queue``/``deque`` built without a
                               positive bound, or dict-style growth with no
                               eviction (``del``/``.pop``/``.clear``) in the
                               class — a long-lived server's memory must stay
                               flat under tenant traffic
repo.public-         error     a module under ``repro/corr/`` or
docstring                      ``repro/backtest/``, or a public class /
                               function / method there, has no docstring —
                               these packages carry the batch/oracle
                               equivalence contract, which lives in prose
===================  ========  =================================================

Suppression: append ``# repro-lint: disable=<rule>[,<rule>...]`` (or
``disable=all``) to the flagged line.  Timing-loop code that samples
``time.time`` legitimately, say, carries the suppression next to the
call so the exemption is reviewable in place.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Finding,
    Location,
    Severity,
    findings_to_diagnostics,
    parse_suppressions,
)

#: Handler names that make a class "a component" for the wall-clock rule.
_HANDLER_NAMES = frozenset({"generate", "on_message", "on_stop"})

#: Attribute accesses that read the wall clock.
_WALL_CLOCK = {
    ("time", "time"),
    ("time", "localtime"),
    ("time", "ctime"),
    ("datetime", "now"),
    ("datetime", "today"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

#: Metric factory methods whose first literal argument is a metric name.
_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram", "timer"})

#: area.noun[.unit] — lowercase dot-separated, optional [bucket] suffixes.
_METRIC_NAME_RE = re.compile(
    r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+(\[[^\]]+\])?)+$"
)
_METRIC_PREFIX_RE = re.compile(r"^[a-z][a-z0-9_]*\.")

#: Point-to-point entry points and the bound checks that absolve them.
_P2P_METHODS = frozenset({"send", "isend", "recv", "irecv", "iprobe"})
_BOUND_CHECKS = frozenset({"_check_peer", "_check_user_tag"})

#: Store read entry points and the argument checks that absolve them
#: (``block_bounds`` counts: it validates via ``_check_block``).
_STORE_ENTRY = frozenset({"read_block", "scan", "day_quotes"})
_STORE_CHECKS = frozenset(
    {"_check_block", "_check_day", "_check_scan_args", "block_bounds"}
)


#: Back-compat alias: repolint rules now yield the shared analysis-core
#: :class:`repro.analysis.diagnostics.Finding`.
_Finding = Finding


def _check_bare_except(tree: ast.AST) -> Iterator[_Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield _Finding(
                "repo.bare-except", Severity.ERROR, node.lineno,
                "bare 'except:' swallows KeyboardInterrupt and SystemExit",
                hint="catch Exception (or something narrower) instead",
            )


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"}
    return False


def _check_mutable_defaults(tree: ast.AST) -> Iterator[_Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield _Finding(
                    "repo.mutable-default", Severity.ERROR, default.lineno,
                    f"function {node.name!r} has a mutable default argument",
                    hint="default to None and create the container in the "
                    "body",
                )


def _wall_clock_calls(body: list[ast.stmt]) -> Iterator[ast.Call]:
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            base_name = None
            if isinstance(base, ast.Name):
                base_name = base.id
            elif isinstance(base, ast.Attribute):
                base_name = base.attr
            if (base_name, func.attr) in _WALL_CLOCK:
                yield node


def _check_wall_clock(tree: ast.AST) -> Iterator[_Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not (_HANDLER_NAMES & set(methods)):
            continue
        for name in sorted(_HANDLER_NAMES & set(methods)):
            for call in _wall_clock_calls(methods[name].body):
                yield _Finding(
                    "repo.wall-clock", Severity.ERROR, call.lineno,
                    f"component handler {node.name}.{name} reads the wall "
                    f"clock",
                    hint="handlers must be replay-deterministic: take time "
                    "from the quote/bar stream (the session clock), not "
                    "the host",
                )


def _check_metric_names(tree: ast.AST) -> Iterator[_Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in _METRIC_FACTORIES:
            continue
        arg = node.args[0]
        bad = None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not _METRIC_NAME_RE.match(arg.value):
                bad = arg.value
        elif isinstance(arg, ast.JoinedStr) and arg.values:
            first = arg.values[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                if not _METRIC_PREFIX_RE.match(first.value):
                    bad = first.value + "..."
        if bad is not None:
            yield _Finding(
                "repo.metric-name", Severity.WARNING, arg.lineno,
                f"metric name {bad!r} does not follow the "
                f"'area.noun.unit' convention",
                hint="lowercase dot-separated segments, leading area "
                "prefix (e.g. 'mpi.sent.bytes')",
            )


def _raises_not_implemented(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name == "NotImplementedError":
                return True
    return False


def _check_mpi_bounds(tree: ast.AST, path: str) -> Iterator[_Finding]:
    if "repro/mpi/" not in path.replace("\\", "/"):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name not in _P2P_METHODS:
                continue
            if _raises_not_implemented(stmt):
                continue  # abstract declaration, nothing to validate
            attrs = {
                n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)
            }
            delegates = (_P2P_METHODS - {stmt.name}) & attrs
            if _BOUND_CHECKS & attrs or delegates:
                continue
            yield _Finding(
                "repo.mpi-bounds", Severity.ERROR, stmt.lineno,
                f"MPI entry point {node.name}.{stmt.name} neither checks "
                f"peer/tag bounds nor delegates to one that does",
                hint="call self._check_peer/_check_user_tag (or delegate "
                "to a checked primitive) before touching mailboxes",
            )


def _check_store_bounds(tree: ast.AST, path: str) -> Iterator[_Finding]:
    if "repro/store/" not in path.replace("\\", "/"):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name not in _STORE_ENTRY:
                continue
            if _raises_not_implemented(stmt):
                continue  # abstract declaration, nothing to validate
            attrs = {
                n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)
            }
            delegates = (_STORE_ENTRY - {stmt.name}) & attrs
            if _STORE_CHECKS & attrs or delegates:
                continue
            yield _Finding(
                "repo.store-bounds", Severity.ERROR, stmt.lineno,
                f"store entry point {node.name}.{stmt.name} neither checks "
                f"its block/day/column arguments nor delegates to a "
                f"method that does",
                hint="call _check_block/_check_day/_check_scan_args (or "
                "delegate to a checked entry point) before touching "
                "segment bytes",
            )


def _is_mutable_value(node: ast.expr) -> bool:
    """Is this initialiser expression a mutable container?"""
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {
            "list", "dict", "set", "bytearray", "defaultdict", "deque",
        }
    return False


def _self_attr_targets(stmt: ast.stmt) -> Iterator[tuple[str, ast.expr | None]]:
    """(attr name, assigned value) for every ``self.<attr> = ...`` in stmt."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr, value


def _check_stateful_snapshot(tree: ast.AST) -> Iterator[_Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        is_component = any(
            (isinstance(base, ast.Name) and base.id == "Component")
            or (isinstance(base, ast.Attribute) and base.attr == "Component")
            for base in node.bases
        )
        if not is_component:
            continue
        methods = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if {"snapshot", "restore"} <= methods:
            continue
        stateful = []
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for attr, value in _self_attr_targets(stmt):
                if stmt.name == "__init__":
                    # Constructor wiring (ports, config) is fine; owning a
                    # mutable container means accumulating run state.
                    if value is not None and _is_mutable_value(value):
                        stateful.append(attr)
                else:
                    # Any post-construction self-mutation is run state.
                    stateful.append(attr)
        if not stateful:
            continue
        sample = ", ".join(sorted(set(stateful))[:4])
        yield _Finding(
            "repo.stateful-snapshot", Severity.ERROR, node.lineno,
            f"stateful component {node.name} (mutates {sample}) does not "
            f"implement both snapshot() and restore()",
            hint="implement both so checkpoint/restart recovery preserves "
            "the component's state, or suppress on the class line if the "
            "state is genuinely derivable",
        )


#: Bounded-container constructors that absolve a live-telemetry append.
_RING_TYPES = frozenset({"EventRing", "SeriesRing"})


def _ring_attrs(node: ast.ClassDef) -> set[str]:
    """Attrs assigned a ring constructor in the class's ``__init__``."""
    bounded: set[str] = set()
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if stmt.name != "__init__":
            continue
        for attr, value in _self_attr_targets(stmt):
            if not isinstance(value, ast.Call):
                continue
            func = value.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in _RING_TYPES:
                bounded.add(attr)
    return bounded


def _check_obs_bounded(tree: ast.AST, path: str) -> Iterator[_Finding]:
    if "repro/obs/live/" not in path.replace("\\", "/"):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bounded = _ring_attrs(node)
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(stmt):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr not in ("append", "extend"):
                    continue
                target = func.value
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if target.attr in bounded:
                    continue
                yield _Finding(
                    "repo.obs-bounded", Severity.ERROR, call.lineno,
                    f"live-telemetry state {node.name}.{target.attr} grows "
                    f"via .{func.attr}() without a ring bound",
                    hint="hold per-tick telemetry in an EventRing/SeriesRing "
                    "built in __init__ so session-long sampling stays "
                    "bounded; suppress in place only for add-once config",
                )


#: Queue constructors: bounded only with a positive ``maxsize``.
_QUEUE_TYPES = frozenset({"Queue", "LifoQueue", "PriorityQueue"})

#: Constructors that can never be bounded; serving code must not hold one.
_UNBOUNDABLE_TYPES = frozenset({"SimpleQueue"})


def _ctor_name(value: ast.expr) -> str | None:
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _has_positive_bound(call: ast.Call, keyword: str) -> bool:
    """True when the ctor passes a bound that is not literally 0/None.

    Non-literal bounds (``maxsize=self.slots``) are accepted — the rule
    checks intent, not arithmetic.
    """
    candidates = [kw.value for kw in call.keywords if kw.arg == keyword]
    if not candidates and call.args:
        candidates = [call.args[0]]
    for value in candidates:
        if isinstance(value, ast.Constant):
            if isinstance(value.value, int) and value.value > 0:
                return True
        else:
            return True
    return False


def _evicted_attrs(node: ast.ClassDef) -> set[str]:
    """Attrs with eviction evidence: ``del self.a[...]``, ``.pop()`` etc."""
    evicted: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Delete):
            for target in sub.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == "self"
                ):
                    evicted.add(target.value.attr)
        elif isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("pop", "popitem", "popleft", "clear")
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
            ):
                evicted.add(func.value.attr)
    return evicted


def _check_serve_bounded(tree: ast.AST, path: str) -> Iterator[_Finding]:
    if "repro/serve/" not in path.replace("\\", "/"):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bounded = _ring_attrs(node)
        evicted = _evicted_attrs(node)
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name == "__init__":
                for attr, value in _self_attr_targets(stmt):
                    name = _ctor_name(value)
                    if name is None:
                        continue
                    if name in _UNBOUNDABLE_TYPES:
                        yield _Finding(
                            "repo.serve-bounded", Severity.ERROR,
                            value.lineno,
                            f"{node.name}.{attr} is a {name}, which cannot "
                            f"be bounded",
                            hint="use queue.Queue(maxsize=N) so tenant "
                            "backlog rejects (429) instead of growing",
                        )
                    elif name in _QUEUE_TYPES:
                        if _has_positive_bound(value, "maxsize"):
                            bounded.add(attr)
                        else:
                            yield _Finding(
                                "repo.serve-bounded", Severity.ERROR,
                                value.lineno,
                                f"{node.name}.{attr} is a {name} without a "
                                f"positive maxsize",
                                hint="pass maxsize=N; an unbounded command/"
                                "work queue lets one tenant exhaust server "
                                "memory",
                            )
                    elif name == "deque":
                        if _has_positive_bound(value, "maxlen"):
                            bounded.add(attr)
            for call in ast.walk(stmt):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr not in ("append", "extend", "add"):
                    continue
                target = func.value
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if target.attr in bounded or target.attr in evicted:
                    continue
                yield _Finding(
                    "repo.serve-bounded", Severity.ERROR, call.lineno,
                    f"serving-layer state {node.name}.{target.attr} grows "
                    f"via .{func.attr}() without a bound",
                    hint="back per-request/per-session accumulation with an "
                    "EventRing/SeriesRing, a maxsize'd Queue or a maxlen'd "
                    "deque; suppress in place only for add-once config",
                )
            if stmt.name == "__init__":
                continue
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    if not (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and isinstance(target.value.value, ast.Name)
                        and target.value.value.id == "self"
                    ):
                        continue
                    attr = target.value.attr
                    if attr in bounded or attr in evicted:
                        continue
                    yield _Finding(
                        "repo.serve-bounded", Severity.ERROR, sub.lineno,
                        f"serving-layer mapping {node.name}.{attr} grows "
                        f"by key without any eviction path",
                        hint="evict somewhere in the class (del/.pop/"
                        ".clear) or cap insertion; per-tenant keyed state "
                        "must not grow for the server's lifetime",
                    )


#: Packages whose public API must be documented: the correlation and
#: backtest layers carry the batch/oracle bitwise-equivalence contract,
#: and that contract is stated in docstrings (see docs/performance.md).
_DOCSTRING_SCOPES = ("repro/corr/", "repro/backtest/")


def _public_defs(
    body: list[ast.stmt], prefix: str = ""
) -> Iterator[tuple[str, ast.stmt]]:
    """Public classes/functions in ``body``, plus public methods one deep."""
    for stmt in body:
        if not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if stmt.name.startswith("_"):
            continue
        yield prefix + stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            yield from _public_defs(stmt.body, prefix=stmt.name + ".")


def _check_public_docstring(tree: ast.Module, path: str) -> Iterator[_Finding]:
    norm = path.replace("\\", "/")
    if not any(scope in norm for scope in _DOCSTRING_SCOPES):
        return
    if ast.get_docstring(tree) is None:
        yield _Finding(
            "repo.public-docstring", Severity.ERROR, 1,
            "module has no docstring",
            hint="state what the module computes and, for corr/backtest "
            "code, how it relates to the batch/oracle equivalence "
            "contract",
        )
    for name, node in _public_defs(tree.body):
        if ast.get_docstring(node) is None:
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            yield _Finding(
                "repo.public-docstring", Severity.ERROR, node.lineno,
                f"public {kind} {name!r} has no docstring",
                hint="document the public API (one line is enough for "
                "trivial accessors); prefix with '_' if it is internal",
            )


def lint_source(text: str, path: str) -> list[Diagnostic]:
    """Lint one module's source text; ``path`` is used for reporting."""
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule="repo.syntax",
                severity=Severity.ERROR,
                location=Location(path=path, line=exc.lineno or 0),
                message=f"module does not parse: {exc.msg}",
            )
        ]
    suppressed = parse_suppressions(text.splitlines())
    findings: list[_Finding] = []
    findings.extend(_check_bare_except(tree))
    findings.extend(_check_mutable_defaults(tree))
    findings.extend(_check_wall_clock(tree))
    findings.extend(_check_metric_names(tree))
    findings.extend(_check_mpi_bounds(tree, path))
    findings.extend(_check_store_bounds(tree, path))
    findings.extend(_check_stateful_snapshot(tree))
    findings.extend(_check_obs_bounded(tree, path))
    findings.extend(_check_serve_bounded(tree, path))
    findings.extend(_check_public_docstring(tree, path))

    return findings_to_diagnostics(findings, path, suppressed)


def lint_paths(paths: list[Path], root: Path | None = None) -> DiagnosticReport:
    """Lint a list of Python files; paths are reported relative to ``root``."""
    report = DiagnosticReport()
    for p in sorted(paths):
        rel = str(p.relative_to(root)) if root is not None else str(p)
        report.extend(lint_source(p.read_text(encoding="utf-8"), rel))
    return report


def lint_tree(root: Path) -> DiagnosticReport:
    """Lint every ``*.py`` under ``root`` (the repo-wide pass)."""
    root = Path(root)
    paths = [p for p in root.rglob("*.py") if "__pycache__" not in p.parts]
    return lint_paths(paths, root=root.parent)
