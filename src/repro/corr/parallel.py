"""Block-parallel correlation over the MPI substrate.

The parallel algorithm follows Chilson et al. (2006) as used by MarketMiner:
the ``n(n-1)/2`` symbol pairs are partitioned into contiguous blocks, each
rank computes the correlations of its block (using the vectorised batched
kernels), and the partial results are combined with collectives.  Because a
pair's computation is independent of every other pair's, the decomposition
is embarrassingly parallel and the combine step is a single reduction —
which is exactly why "a parallel algorithm is essential for real-time
trading" scales (paper §III).

All entry points are SPMD: every rank calls with the same arguments plus
its own communicator, and every rank returns the full result.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.corr.batch import BatchWorkspace, batch_pair_blocks, batch_pair_series
from repro.corr.maronna import MaronnaConfig
from repro.corr.measures import CorrelationType, all_pairs, check_pairs, corr_matrix
from repro.mpi.api import SUM, Comm
from repro.obs import NULL_METRIC, comm_obs


def _method_timer(comm: Comm, method: str):
    """Timer into ``corr.parallel.<method>.seconds`` on the comm's obs."""
    obs = comm_obs(comm)
    if obs is None or not obs.enabled:
        return NULL_METRIC
    return obs.metrics.timer(f"corr.parallel.{method}.seconds")


def partition_pairs(
    pairs: list[tuple[int, int]], size: int
) -> list[list[tuple[int, int]]]:
    """Split a pair list into ``size`` contiguous, near-equal blocks.

    Ranks beyond the pair count receive empty blocks, so any (size, #pairs)
    combination is valid.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    pairs = list(pairs)
    n = len(pairs)
    base, extra = divmod(n, size)
    blocks: list[list[tuple[int, int]]] = []
    start = 0
    for r in range(size):
        count = base + (1 if r < extra else 0)
        blocks.append(pairs[start : start + count])
        start += count
    return blocks


def parallel_pair_series(
    comm: Comm,
    returns: np.ndarray,
    m: int,
    ctypes: Iterable[CorrelationType | str],
    pairs: list[tuple[int, int]],
    config: MaronnaConfig | None = None,
    workspace: BatchWorkspace | None = None,
) -> dict[CorrelationType, dict[tuple[int, int], np.ndarray]]:
    """Rolling series of every wanted treatment at one window, SPMD.

    The pair list is partitioned across ranks; each rank evaluates its
    block once for all of ``ctypes``
    (:func:`repro.corr.batch.batch_pair_blocks`: Maronna and Combined
    share one fixed point) and a single all-gather merges the blocks, so
    every rank returns the complete ``{treatment: {pair: series}}``
    mapping.  Series indexing matches :func:`repro.corr.batch.corr_series`.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2:
        raise ValueError(f"need (T, n) returns, got shape {returns.shape}")
    # Every rank checks the whole list, so a bad pair fails all ranks
    # together instead of stranding the others in the all-gather.
    pairs = check_pairs(pairs, returns.shape[1])
    with _method_timer(comm, "pair_series"):
        mine = partition_pairs(pairs, comm.size)[comm.rank]
        obs = comm_obs(comm)
        if obs is not None and obs.enabled:
            obs.metrics.counter("corr.parallel.pairs_local").inc(len(mine))
        blocks = batch_pair_blocks(
            returns, m, ctypes, config, pairs=mine, obs=obs,
            workspace=workspace,
        )
        local = {
            ctype: {
                pair: np.ascontiguousarray(block[:, p])
                for p, pair in enumerate(mine)
            }
            for ctype, block in blocks.items()
        }
        merged: dict = {ctype: {} for ctype in local}
        for part in comm.allgather(local):
            for ctype, series in part.items():
                merged[ctype].update(series)
        return merged


class ParallelCorrelationEngine:
    """Distribute pairwise correlation work across the ranks of a Comm.

    One treatment per engine; each rank drives its pair block through
    :func:`repro.corr.batch.batch_pair_series`, and results are
    bitwise-identical across rank counts and MPI backends.  An engine
    that wants several treatments at one window asks
    :func:`parallel_pair_series` for them together.
    """

    def __init__(
        self,
        ctype: CorrelationType | str = CorrelationType.PEARSON,
        config: MaronnaConfig | None = None,
    ):
        self.ctype = CorrelationType.parse(ctype)
        self.config = config
        self._workspace = BatchWorkspace()

    def _my_pairs(self, comm: Comm, n: int) -> list[tuple[int, int]]:
        return partition_pairs(all_pairs(n), comm.size)[comm.rank]

    def matrix(self, comm: Comm, window: np.ndarray) -> np.ndarray:
        """Full (n, n) correlation matrix of an ``(M, n)`` window, SPMD.

        Each rank fills its pair block; a SUM all-reduce assembles the full
        matrix on every rank (off-block entries are zero, so the sum is
        exact assembly, not accumulation).
        """
        window = np.asarray(window, dtype=float)
        if window.ndim != 2:
            raise ValueError(f"need an (M, n) window, got shape {window.shape}")
        with _method_timer(comm, "matrix"):
            n = window.shape[1]
            mine = self._my_pairs(comm, n)
            partial = corr_matrix(window, self.ctype, self.config, pairs=mine)
            full = comm.allreduce(partial, op=SUM)
            np.fill_diagonal(full, 1.0)
            return full

    def pair_series(
        self,
        comm: Comm,
        returns: np.ndarray,
        m: int,
        pairs: list[tuple[int, int]],
    ) -> dict[tuple[int, int], np.ndarray]:
        """Rolling correlation series for each requested pair, SPMD:
        :func:`parallel_pair_series` for this engine's one treatment."""
        return parallel_pair_series(
            comm, returns, m, [self.ctype], pairs, self.config,
            self._workspace,
        )[self.ctype]

    def matrix_series(
        self, comm: Comm, returns: np.ndarray, m: int
    ) -> np.ndarray:
        """Series of full correlation matrices, SPMD; shape (T-m+1, n, n).

        The parallel counterpart of
        :func:`repro.corr.batch.corr_matrix_series` — each rank computes
        its pair block's series, assembled by SUM all-reduce.
        """
        returns = np.asarray(returns, dtype=float)
        if returns.ndim != 2:
            raise ValueError(f"need (T, n) returns, got shape {returns.shape}")
        n = returns.shape[1]
        with _method_timer(comm, "matrix_series"):
            mine = self._my_pairs(comm, n)
            block = batch_pair_series(
                returns, m, self.ctype, self.config, pairs=mine,
                obs=comm_obs(comm), workspace=self._workspace,
            )
            partial = np.zeros((block.shape[0], n, n))
            idx_i = np.asarray([i for i, _ in mine], dtype=np.intp)
            idx_j = np.asarray([j for _, j in mine], dtype=np.intp)
            partial[:, idx_i, idx_j] = block
            partial[:, idx_j, idx_i] = block
            full = comm.allreduce(partial, op=SUM)
            full[:, np.arange(n), np.arange(n)] = 1.0
            return full
