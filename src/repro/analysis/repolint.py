"""The source rules the repository holds itself to, in one pass.

:func:`lint_index` feeds every source-level rule from one
:class:`~repro.analysis.deepcheck.core.ModuleIndex` parse:

* ``repo.syntax`` — a module does not parse;
* ``repo.public-docstring`` — ``repro/corr/`` and ``repro/backtest/``
  carry the batch/oracle equivalence contract in prose, so their modules
  and public classes / functions / methods must have docstrings;
* ``repo.wall-clock`` — a clock read inside a ``Component``'s run scope.
  That is the one place a clock can reach a result without a test
  noticing: a handler that stamps a payload still passes every
  seeded-equality test on the machine that wrote it.  Everywhere else a
  clock read is telemetry or a deadline, and whether it leaks into
  results is what recovered == fault-free, rescaled == fixed-size and
  thread == process check dynamically;
* ``repo.stateful-snapshot`` and ``state.*`` — the snapshot()/restore()
  contract (:mod:`repro.analysis.deepcheck.statecheck`).

:data:`repro.analysis.diagnostics.RULES` is the catalogue.  Suppression:
append ``# repro-lint: disable=<rule>[,<rule>...]`` (or ``disable=all``)
to the flagged line, so the exemption is reviewable in place.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.deepcheck.core import ModuleIndex, resolved_call_name
from repro.analysis.deepcheck.statecheck import check_class
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Finding,
    Location,
    Severity,
)

#: Wall, monotonic and CPU clocks alike: a duration that reaches a
#: result differs across runs and backends as surely as a timestamp.
CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.asctime", "time.strftime",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Packages whose public API must be documented: the correlation and
#: backtest layers carry the batch/oracle bitwise-equivalence contract,
#: and that contract is stated in docstrings (see docs/performance.md).
_DOCSTRING_SCOPES = ("repro/corr/", "repro/backtest/")


def _check_wall_clock(index: ModuleIndex) -> Iterator[tuple[str, Finding]]:
    """(module path, finding) per clock read in a Component's run scope."""
    seen: set[tuple[str, int]] = set()
    for cls in index.component_classes():
        for name, (fn, owner) in index.run_scope(cls).items():
            mod = owner.module
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                clock = resolved_call_name(mod, node.func)
                site = (mod.relpath, node.lineno)
                if clock not in CLOCK_CALLS or site in seen:
                    continue
                seen.add(site)
                yield mod.relpath, Finding(
                    "repo.wall-clock", Severity.ERROR, node.lineno,
                    f"{owner.name}.{name} runs inside a component and "
                    f"reads {clock}()",
                    hint="components must be replay-deterministic: take "
                    "time from the quote/bar stream (the session clock), "
                    "not the host",
                )


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


def _check_public_docstring(tree: ast.Module, path: str) -> Iterator[Finding]:
    norm = path.replace("\\", "/")
    if not any(scope in norm for scope in _DOCSTRING_SCOPES):
        return
    if ast.get_docstring(tree) is None:
        yield Finding(
            "repo.public-docstring", Severity.ERROR, 1,
            "module has no docstring",
            hint="state what the module computes and, for corr/backtest "
            "code, how it relates to the batch/oracle equivalence "
            "contract",
        )
    for name, node in _public_defs(tree.body):
        if ast.get_docstring(node) is None:
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            yield Finding(
                "repo.public-docstring", Severity.ERROR, node.lineno,
                f"public {kind} {name!r} has no docstring",
                hint="document the public API (one line is enough for "
                "trivial accessors); prefix with '_' if it is internal",
            )


def lint_index(index: ModuleIndex) -> list[Diagnostic]:
    """Every source rule over one parsed index, in path order."""
    by_module: dict[str, list[Finding]] = {
        relpath: list(_check_public_docstring(mod.tree, relpath))
        for relpath, mod in index.modules.items()
    }
    for cls in index.component_classes():
        by_module[cls.module.relpath].extend(check_class(index, cls))
    for relpath, finding in _check_wall_clock(index):
        by_module[relpath].append(finding)
    unparsable = [
        Diagnostic(
            rule="repo.syntax",
            severity=Severity.ERROR,
            location=Location(path=relpath, line=exc.lineno or 0),
            message=f"module does not parse: {exc.msg}",
        )
        for relpath, exc in index.syntax_errors.items()
    ]
    return unparsable + index.located(by_module)


def lint_source(text: str, path: str) -> list[Diagnostic]:
    """Lint one module's source text; ``path`` is used for reporting."""
    return lint_index(ModuleIndex.from_sources({path: text}))


def lint_tree(root: Path) -> DiagnosticReport:
    """Lint every ``*.py`` under ``root`` (the repo-wide pass)."""
    return DiagnosticReport(lint_index(ModuleIndex.from_tree(root)))
