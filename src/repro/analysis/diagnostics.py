"""The shared diagnostic model for every analysis pass.

All checkers — the graph linter, the dynamic comm checker and the
source rules — report through one vocabulary: a :class:`Diagnostic`
carries a stable rule id (``family.rule`` form, e.g. ``graph.cycle`` or
``state.snapshot-missing``), a :class:`Severity`, a :class:`Location`
naming where the defect lives (a file line, a graph element, or a
rank/event), a message, and an optional fix hint.  ``repro lint``
renders and aggregates them, and tests assert on rule ids instead of
message text.  :data:`RULES` is the one catalogue of the static ids
(``repro lint --list-rules``).

This module also hosts what every *source-level* rule shares:

* :class:`Finding` — a pre-:class:`Diagnostic` working record (rule,
  severity, line, message, hint) that rule implementations yield;
* :func:`parse_suppressions` — the ``# repro-lint: disable=<rule>``
  pragma parser, the only suppression mechanism;
* :func:`findings_to_diagnostics` — applies the pragmas and converts the
  surviving findings to located diagnostics in one deterministic order.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterable


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so max() picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points.

    Exactly one "coordinate system" is populated per diagnostic: file
    locations carry ``path``/``line``; graph locations carry ``graph``
    and ``element`` (a component, edge or rank description); trace
    locations carry ``rank`` and ``event`` (a program-order event index).
    """

    path: str | None = None
    line: int | None = None
    graph: str | None = None
    element: str | None = None
    rank: int | None = None
    event: int | None = None

    def __str__(self) -> str:
        if self.path is not None:
            where = self.path if self.line is None else f"{self.path}:{self.line}"
            return where
        if self.graph is not None:
            if self.element is not None:
                return f"{self.graph}::{self.element}"
            return self.graph
        if self.rank is not None:
            if self.event is not None:
                return f"rank {self.rank} event #{self.event}"
            return f"rank {self.rank}"
        return "<unknown>"


@dataclass(frozen=True)
class Diagnostic:
    """One finding from an analysis pass."""

    rule: str
    severity: Severity
    location: Location
    message: str
    hint: str | None = None

    def render(self) -> str:
        """One-line (plus optional hint line) human-readable form."""
        line = f"{self.location}: {self.severity}: {self.rule}: {self.message}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with summary helpers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: list[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def by_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def errors(self) -> int:
        return self.count(Severity.ERROR)

    @property
    def warnings(self) -> int:
        return self.count(Severity.WARNING)

    def worst(self) -> Severity | None:
        """The highest severity present, or None when clean."""
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def sorted(self) -> list[Diagnostic]:
        """Stable severity-major ordering (worst first) for rendering."""
        return sorted(
            self.diagnostics,
            key=lambda d: (-int(d.severity), d.rule, str(d.location)),
        )

    def render(self) -> str:
        """Full text report: one block per diagnostic plus a summary line."""
        lines = [d.render() for d in self.sorted()]
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        n = len(self.diagnostics)
        return (
            f"{n} diagnostic(s): {self.errors} error(s), "
            f"{self.warnings} warning(s), {self.count(Severity.INFO)} info"
        )


#: Every rule id ``repro lint`` can emit -> (severity, what fires it).
#: ``--list-rules`` prints this; a test holds it equal to the ids the
#: checkers' sources mention.
RULES: dict[str, tuple[str, str]] = {
    "graph.empty": ("error", "the spec declares no components"),
    "graph.no-source": ("error", "no component with zero input ports exists"),
    "graph.cycle": ("error", "the component digraph contains a cycle"),
    "graph.unknown-endpoint": (
        "error", "an edge references an unknown component or port"),
    "graph.duplicate-edge": (
        "error", "two edges share (src, src_port, dst, dst_port)"),
    "graph.missing-input": (
        "error", "an input port has no inbound edge: end-of-stream never "
        "arrives"),
    "graph.fan-in": (
        "error", "inbound edges on a port exceed its declared cap"),
    "graph.fan-out": (
        "error", "outbound edges on a port exceed its declared cap"),
    "graph.tag-bounds": ("error", "an edge declares a negative MPI tag"),
    "graph.tag-collision": (
        "error", "two logical edges share a placement channel (src rank -> "
        "dst rank) and an explicit tag"),
    "graph.unreachable": (
        "warning", "a component is unreachable from every source"),
    "graph.rank-budget": (
        "warning", "a rank's accumulated weight exceeds --rank-budget"),
    "graph.idle-ranks": (
        "warning", "the placement leaves ranks with no component"),
    "state.snapshot-missing": (
        "error", "instance attribute mutated at run time but never read by "
        "snapshot()"),
    "state.restore-missing": (
        "error", "attribute captured by snapshot() but never assigned by "
        "restore()"),
    "state.key-unread": (
        "error", "snapshot dict key never read by restore() (protocol keys "
        "exempt)"),
    "state.key-unknown": (
        "error", "restore() reads a key snapshot() never produces"),
    "state.live-alias": (
        "error", "checkpoint aliases live mutable state (missing copy in "
        "snapshot()/restore())"),
    "repo.stateful-snapshot": (
        "error", "a Component carries run state but does not implement both "
        "snapshot() and restore()"),
    "repo.wall-clock": (
        "error", "a Component's run scope (handlers, snapshot/restore/result "
        "and the self. helpers they reach) reads a wall/CPU clock"),
    "repo.public-docstring": (
        "error", "a module under repro/corr/ or repro/backtest/, or a public "
        "class/function/method there, has no docstring"),
    "repo.syntax": ("error", "a module does not parse"),
}


def list_rules() -> str:
    """The ``--list-rules`` text: one aligned row per rule."""
    width = max(len(r) for r in RULES)
    return "\n".join(
        f"{rule:<{width}}  [{sev}]  {desc}"
        for rule, (sev, desc) in sorted(RULES.items())
    )


# -- shared source-rule machinery -------------------------------------------

#: The one suppression pragma every source linter honours:
#: ``# repro-lint: disable=<rule>[,<rule>...]`` or ``disable=all``.
SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([\w.,\s-]+)")


class Finding:
    """A rule hit before it is located: what the source rules yield.

    Rule implementations produce :class:`Finding` rows (line-relative,
    path-agnostic); :func:`findings_to_diagnostics` applies suppression
    pragmas and stamps the file path to produce :class:`Diagnostic` rows.
    """

    __slots__ = ("rule", "severity", "line", "message", "hint")

    def __init__(self, rule, severity, line, message, hint=None):
        self.rule = rule
        self.severity = severity
        self.line = line
        self.message = message
        self.hint = hint


def parse_suppressions(lines: list[str]) -> dict[int, set[str]]:
    """Map 1-based line numbers to the rule ids suppressed on them."""
    out: dict[int, set[str]] = {}
    for i, line in enumerate(lines, start=1):
        m = SUPPRESS_RE.search(line)
        if m:
            out[i] = {part.strip() for part in m.group(1).split(",")}
    return out


def is_suppressed(rule: str, line: int, suppressed: dict[int, set[str]]) -> bool:
    """Does a pragma on ``line`` disable ``rule`` (or ``all``)?"""
    rules_off = suppressed.get(line, set())
    return "all" in rules_off or rule in rules_off


def findings_to_diagnostics(
    findings: Iterable[Finding],
    path: str,
    suppressed: dict[int, set[str]] | None = None,
) -> list[Diagnostic]:
    """Apply pragmas and locate findings, in deterministic (line, rule) order."""
    suppressed = suppressed or {}
    out = []
    for f in sorted(findings, key=lambda f: (f.line, f.rule, f.message)):
        if is_suppressed(f.rule, f.line, suppressed):
            continue
        out.append(
            Diagnostic(
                rule=f.rule,
                severity=f.severity,
                location=Location(path=path, line=f.line),
                message=f.message,
                hint=f.hint,
            )
        )
    return out
