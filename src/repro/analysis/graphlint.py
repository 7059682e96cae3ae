"""Static validation of MarketMiner graph specs.

Operates on the plain-data :class:`repro.marketminer.graph.GraphSpec`
view (``Workflow.spec()``), so it can diagnose graphs that ``Workflow``
itself would refuse to construct — the linter's job is to report *every*
defect in a hand-written or generated spec, not to stop at the first.

The thirteen ``graph.*`` rules are listed in
:data:`repro.analysis.diagnostics.RULES` (``repro lint --list-rules``).

The placement-dependent rules (tag-collision, rank-budget, idle-ranks)
only run when a rank count is supplied; tag-collision additionally only
considers edges with *explicit* declared tags — default (payload-routed)
edges cannot collide by construction.
"""

from __future__ import annotations

import networkx as nx

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Location,
    Severity,
)
from repro.marketminer.graph import Edge, GraphSpec, Workflow


def _edge_desc(e: Edge) -> str:
    desc = f"edge {e.src}.{e.src_port}->{e.dst}.{e.dst_port}"
    if e.tag is not None:
        desc += f" [tag {e.tag}]"
    return desc


class _Linter:
    def __init__(
        self,
        spec: GraphSpec,
        size: int | None,
        rank_budget: float | None,
    ):
        self.spec = spec
        self.size = size
        self.rank_budget = rank_budget
        self.report = DiagnosticReport()

    def _diag(
        self,
        rule: str,
        severity: Severity,
        element: str | None,
        message: str,
        hint: str | None = None,
    ) -> None:
        self.report.add(
            Diagnostic(
                rule=rule,
                severity=severity,
                location=Location(graph=self.spec.name, element=element),
                message=message,
                hint=hint,
            )
        )

    # -- structural rules -------------------------------------------------

    def check_structure(self) -> None:
        spec = self.spec
        if not spec.components:
            self._diag(
                "graph.empty", Severity.ERROR, None,
                "workflow declares no components",
            )
            return
        if not any(c.is_source for c in spec.components.values()):
            self._diag(
                "graph.no-source", Severity.ERROR, None,
                "no source component (every component has input ports)",
                hint="a workflow needs at least one generator to drive it",
            )

        g = spec.to_networkx()
        if not nx.is_directed_acyclic_graph(g):
            for cycle in nx.simple_cycles(g):
                path = " -> ".join([*cycle, cycle[0]])
                self._diag(
                    "graph.cycle", Severity.ERROR, cycle[0],
                    f"workflow contains a cycle: {path}",
                    hint="end-of-stream can never propagate through a cycle; "
                    "break it or fold the loop into one component",
                )

        self._check_edges()
        self._check_ports(g)

    def _check_edges(self) -> None:
        spec = self.spec
        seen: set[tuple[str, str, str, str]] = set()
        for e in spec.edges:
            ok = True
            for end, port_attr, kind in (
                (e.src, "output_ports", "output"),
                (e.dst, "input_ports", "input"),
            ):
                comp = spec.components.get(end)
                if comp is None:
                    self._diag(
                        "graph.unknown-endpoint", Severity.ERROR,
                        _edge_desc(e),
                        f"references unknown component {end!r}",
                    )
                    ok = False
                    continue
                port = e.src_port if kind == "output" else e.dst_port
                if port not in getattr(comp, port_attr):
                    self._diag(
                        "graph.unknown-endpoint", Severity.ERROR,
                        _edge_desc(e),
                        f"{end!r} has no {kind} port {port!r} "
                        f"(has {sorted(getattr(comp, port_attr))})",
                    )
                    ok = False
            if ok:
                if e.endpoints in seen:
                    self._diag(
                        "graph.duplicate-edge", Severity.ERROR, _edge_desc(e),
                        "duplicate edge (same endpoints already connected)",
                        hint="a duplicate edge doubles every message and EOS "
                        "token on the connection",
                    )
                seen.add(e.endpoints)
            if e.tag is not None and e.tag < 0:
                self._diag(
                    "graph.tag-bounds", Severity.ERROR, _edge_desc(e),
                    f"declared tag {e.tag} is negative",
                    hint="negative tags are reserved for collectives; "
                    "user edges must declare tags >= 0",
                )

    def _check_ports(self, g: nx.DiGraph) -> None:
        spec = self.spec
        fan_in: dict[tuple[str, str], int] = {}
        fan_out: dict[tuple[str, str], int] = {}
        for e in spec.edges:
            fan_in[(e.dst, e.dst_port)] = fan_in.get((e.dst, e.dst_port), 0) + 1
            fan_out[(e.src, e.src_port)] = (
                fan_out.get((e.src, e.src_port), 0) + 1
            )

        for name, comp in spec.components.items():
            for port in comp.input_ports:
                n = fan_in.get((name, port), 0)
                if n == 0:
                    self._diag(
                        "graph.missing-input", Severity.ERROR,
                        f"{name}.{port}",
                        "input port has no inbound edge",
                        hint="an unconnected input never sees end-of-stream, "
                        "so the component can never stop",
                    )
                cap = comp.max_fan_in.get(port)
                if cap is not None and n > cap:
                    self._diag(
                        "graph.fan-in", Severity.ERROR, f"{name}.{port}",
                        f"{n} inbound edges exceed the declared fan-in "
                        f"cap of {cap}",
                    )
            for port in comp.output_ports:
                cap = comp.max_fan_out.get(port)
                n = fan_out.get((name, port), 0)
                if cap is not None and n > cap:
                    self._diag(
                        "graph.fan-out", Severity.ERROR, f"{name}.{port}",
                        f"{n} outbound edges exceed the declared fan-out "
                        f"cap of {cap}",
                    )

        sources = [n for n, c in spec.components.items() if c.is_source]
        reachable: set[str] = set(sources)
        for src in sources:
            if src in g:
                reachable |= nx.descendants(g, src)
        for name in sorted(set(spec.components) - reachable):
            self._diag(
                "graph.unreachable", Severity.WARNING, name,
                "component is unreachable from every source",
                hint="orphaned components never run; remove them or wire "
                "them into the stream",
            )

    # -- placement-dependent rules ----------------------------------------

    def check_placement(self) -> None:
        if self.size is None or not self.spec.components:
            return
        if not nx.is_directed_acyclic_graph(self.spec.to_networkx()):
            return  # placement is undefined on a cyclic graph
        from repro.marketminer.scheduler import placement_report

        placement = placement_report(self.spec, self.size)
        for rank in placement.idle_ranks():
            self._diag(
                "graph.idle-ranks", Severity.WARNING, f"rank {rank}",
                f"placement over {self.size} rank(s) leaves rank {rank} "
                "with no component",
                hint="fewer ranks (or more components) would waste less "
                "of the allocation",
            )
        if self.rank_budget is not None:
            for rank, load in enumerate(placement.loads):
                if load > self.rank_budget:
                    names = ", ".join(placement.components_of(rank))
                    self._diag(
                        "graph.rank-budget", Severity.WARNING,
                        f"rank {rank}",
                        f"accumulated weight {load:g} exceeds the rank "
                        f"budget {self.rank_budget:g} ({names})",
                        hint="raise the rank count or rebalance component "
                        "weights",
                    )
        self._check_tag_collisions(placement.assignment)

    def _check_tag_collisions(self, assignment: dict[str, int]) -> None:
        # Two logical edges whose traffic shares a physical channel
        # (sender rank -> receiver rank) and an explicit tag cannot be
        # told apart by (source, tag) matching at the receiver.
        channels: dict[tuple[int, int, int], list[Edge]] = {}
        for e in self.spec.edges:
            if e.tag is None:
                continue
            if e.src not in assignment or e.dst not in assignment:
                continue
            key = (assignment[e.src], assignment[e.dst], e.tag)
            channels.setdefault(key, []).append(e)
        for (src_rank, dst_rank, tag), edges in sorted(channels.items()):
            if len({e.endpoints for e in edges}) < 2:
                continue
            listing = "; ".join(_edge_desc(e) for e in edges)
            self._diag(
                "graph.tag-collision", Severity.ERROR,
                f"rank {src_rank}->rank {dst_rank} tag {tag}",
                f"{len(edges)} edges share channel rank {src_rank}->"
                f"{dst_rank} with tag {tag}: {listing}",
                hint="assign distinct tags to edges that share a rank "
                "pair, or leave tags unset to use payload routing",
            )


def lint_graph(
    spec: GraphSpec | Workflow,
    size: int | None = None,
    rank_budget: float | None = None,
) -> DiagnosticReport:
    """Run every graph-lint rule over ``spec``.

    Parameters
    ----------
    spec:
        A built :class:`Workflow` or a raw :class:`GraphSpec` (possibly
        malformed — that is the point).
    size:
        Rank count to evaluate placement-dependent rules against; None
        skips them.
    rank_budget:
        Maximum accumulated component weight per rank; None disables the
        rank-budget rule.
    """
    if isinstance(spec, Workflow):
        spec = spec.spec()
    linter = _Linter(spec, size=size, rank_budget=rank_budget)
    linter.check_structure()
    linter.check_placement()
    return linter.report
