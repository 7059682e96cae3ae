"""Mapping workflow DAGs onto ranks.

MarketMiner workflows are directed acyclic graphs of components (Figure 1).
With fewer ranks than components, several components share a rank; this
module computes and queries that assignment.  The placement heuristic is
weighted round-robin over a topological order: heavy components (e.g. the
parallel correlation engine) can declare a weight so that light plumbing
components co-locate while heavy ones spread out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

import networkx as nx


@dataclass(frozen=True)
class RankMap:
    """Bidirectional component ↔ rank assignment."""

    assignment: Mapping[Hashable, int]
    size: int
    _by_rank: dict[int, tuple[Hashable, ...]] = field(
        init=False, repr=False, hash=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        by_rank: dict[int, list[Hashable]] = {r: [] for r in range(self.size)}
        for component, rank in self.assignment.items():
            if not 0 <= rank < self.size:
                raise ValueError(
                    f"component {component!r} assigned to rank {rank}, "
                    f"outside [0, {self.size})"
                )
            by_rank[rank].append(component)
        object.__setattr__(
            self, "_by_rank", {r: tuple(cs) for r, cs in by_rank.items()}
        )

    def rank_of(self, component: Hashable) -> int:
        """Rank hosting ``component``."""
        try:
            return self.assignment[component]
        except KeyError:
            raise KeyError(f"unknown component {component!r}") from None

    def components_of(self, rank: int) -> tuple[Hashable, ...]:
        """Components hosted on ``rank`` (possibly empty)."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside [0, {self.size})")
        return self._by_rank[rank]

    @property
    def components(self) -> tuple[Hashable, ...]:
        return tuple(self.assignment)


def contract_dag(
    dag: nx.DiGraph,
    size: int,
    weights: Mapping[Hashable, float] | None = None,
) -> RankMap:
    """Assign each DAG node to one of ``size`` ranks.

    Nodes are visited in topological order and placed on the rank with the
    lowest accumulated weight, which keeps pipeline stages spread across
    ranks while balancing declared load.  Ties break toward the lowest rank,
    making the placement deterministic.

    Parameters
    ----------
    dag:
        The workflow graph; must be a DAG.
    size:
        Number of ranks available.
    weights:
        Optional per-node load estimates (default 1.0 each).
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if dag.number_of_nodes() == 0:
        raise ValueError("cannot contract an empty DAG")
    if not nx.is_directed_acyclic_graph(dag):
        raise ValueError("workflow graph contains a cycle")
    weights = dict(weights or {})
    for node in weights:
        if node not in dag:
            raise ValueError(f"weight given for unknown node {node!r}")

    load = [0.0] * size
    assignment: dict[Hashable, int] = {}
    for node in nx.lexicographical_topological_sort(dag, key=str):
        rank = min(range(size), key=lambda r: (load[r], r))
        assignment[node] = rank
        load[rank] += float(weights.get(node, 1.0))
    return RankMap(assignment=assignment, size=size)


def placement_moves(
    old: RankMap, new: RankMap
) -> tuple[tuple[Hashable, int, int], ...]:
    """Components whose host rank changes between two placements.

    Returns deterministic ``(component, old_rank, new_rank)`` triples,
    sorted by component name — the supervisor logs these when a
    pool resize re-contracts the workflow DAG, so an operator can see
    exactly which components migrated at each boundary.  Both maps must
    cover the same component set (they come from the same workflow).
    """
    if set(old.assignment) != set(new.assignment):
        only_old = sorted(
            str(c) for c in set(old.assignment) - set(new.assignment)
        )
        only_new = sorted(
            str(c) for c in set(new.assignment) - set(old.assignment)
        )
        raise ValueError(
            f"rank maps disagree on the component set "
            f"(only in old: {only_old}; only in new: {only_new})"
        )
    return tuple(
        (component, old.rank_of(component), new.rank_of(component))
        for component in sorted(old.assignment, key=str)
        if old.rank_of(component) != new.rank_of(component)
    )
