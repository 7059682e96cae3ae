"""Correlation clustering and candidate-pair screening.

The paper's trader routine starts before any backtest: "The usual routine
for a fundamental pair trader is to first identify a number of candidate
pairs" (§II), and MarketMiner's lineage is "a parallel workflow for
real-time correlation *and clustering* of high-frequency stock market
data" (Rostoker, Wagner & Hoos 2007, the paper's reference [12]).  This
module is that screening stage:

* :func:`threshold_graph` / :func:`correlation_clusters` — the graph view:
  stocks are nodes, edges join pairs whose correlation exceeds a
  threshold; connected components are trading clusters;
* :func:`hierarchical_clusters` — the dendrogram view, using the standard
  correlation distance ``d = sqrt(2 (1 - ρ))``;
* :func:`screen_candidate_pairs` — the output a pair trader wants: the
  highly-correlated pairs, "with a high degree of statistical certainty"
  (a Fisher-z lower confidence bound), ranked.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.util.validation import check_positive_int


def _check_corr_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square correlation matrix, got {m.shape}")
    if not np.allclose(m, m.T, atol=1e-8):
        raise ValueError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(m), 1.0, atol=1e-8):
        raise ValueError("correlation matrix must have unit diagonal")
    if np.any(np.abs(m) > 1.0 + 1e-8):
        raise ValueError("correlation entries must lie in [-1, 1]")
    return m


def threshold_graph(matrix, threshold: float) -> nx.Graph:
    """Graph with an edge (i, j, weight=ρ) wherever ``ρ_ij >= threshold``."""
    m = _check_corr_matrix(matrix)
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [-1, 1], got {threshold}")
    n = m.shape[0]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    ii, jj = np.nonzero(np.triu(m >= threshold, k=1))
    g.add_weighted_edges_from(
        (int(i), int(j), float(m[i, j])) for i, j in zip(ii, jj)
    )
    return g


def correlation_clusters(matrix, threshold: float) -> list[set[int]]:
    """Connected components of the threshold graph, largest first.

    Singletons (stocks correlated with nothing above the threshold) are
    included, so the clusters partition the universe.
    """
    g = threshold_graph(matrix, threshold)
    return sorted(nx.connected_components(g), key=lambda c: (-len(c), min(c)))


def hierarchical_clusters(matrix, n_clusters: int) -> list[set[int]]:
    """Average-linkage clustering under correlation distance.

    ``d_ij = sqrt(2 (1 - ρ_ij))`` is the standard metric embedding of
    correlation (0 for perfectly co-moving, 2 for perfectly opposed).
    Returns at most ``n_clusters`` clusters (dendrogram ties can make a
    coarser cut the closest achievable), largest first.
    """
    m = _check_corr_matrix(matrix)
    check_positive_int(n_clusters, "n_clusters")
    n = m.shape[0]
    if n_clusters > n:
        raise ValueError(f"cannot form {n_clusters} clusters from {n} stocks")
    if n == 1:
        return [{0}]
    from scipy.cluster import hierarchy  # scipy stays off the import path
    from scipy.spatial.distance import squareform

    dist = np.sqrt(np.maximum(2.0 * (1.0 - m), 0.0))
    np.fill_diagonal(dist, 0.0)
    linkage = hierarchy.linkage(squareform(dist, checks=False), method="average")
    labels = hierarchy.fcluster(linkage, t=n_clusters, criterion="maxclust")
    clusters: dict[int, set[int]] = {}
    for node, label in enumerate(labels):
        clusters.setdefault(int(label), set()).add(node)
    return sorted(clusters.values(), key=lambda c: (-len(c), min(c)))


@dataclass(frozen=True, slots=True)
class CandidatePair:
    """A screened pair: correlation plus its Fisher-z lower bound."""

    pair: tuple[int, int]
    correlation: float
    lower_bound: float


def fisher_lower_bound(rho: float, n_obs: int, confidence: float = 0.95) -> float:
    """One-sided lower confidence bound for a correlation coefficient.

    Fisher z-transform: ``z = atanh(ρ)`` is ~normal with sd
    ``1/sqrt(n-3)``; the bound is ``tanh(z - z_alpha / sqrt(n-3))``.
    This is the "high degree of statistical certainty" attached to a
    statistical pair (paper §II).
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if n_obs < 4:
        raise ValueError(f"need at least 4 observations, got {n_obs}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    from scipy.stats import norm  # scipy stays off the import path

    rho = float(np.clip(rho, -0.999999, 0.999999))
    z = np.arctanh(rho)
    z_alpha = norm.ppf(confidence)
    return float(np.tanh(z - z_alpha / np.sqrt(n_obs - 3)))


def screen_candidate_pairs(
    matrix,
    n_obs: int,
    threshold: float = 0.5,
    confidence: float = 0.95,
    max_pairs: int | None = None,
) -> list[CandidatePair]:
    """Rank pairs whose correlation lower bound clears ``threshold``.

    The screen demands statistical certainty, not just a high point
    estimate: a pair qualifies when the Fisher-z lower confidence bound
    of its correlation exceeds the threshold.  Results are ranked by
    point correlation, optionally truncated to ``max_pairs``.
    """
    m = _check_corr_matrix(matrix)
    if max_pairs is not None:
        check_positive_int(max_pairs, "max_pairs")
    n = m.shape[0]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            lb = fisher_lower_bound(m[i, j], n_obs, confidence)
            if lb >= threshold:
                out.append(
                    CandidatePair(
                        pair=(i, j),
                        correlation=float(m[i, j]),
                        lower_bound=lb,
                    )
                )
    out.sort(key=lambda c: -c.correlation)
    if max_pairs is not None:
        out = out[:max_pairs]
    return out
