"""Block-parallel correlation over the MPI substrate.

The parallel algorithm follows Chilson et al. (2006) as used by MarketMiner:
the ``n(n-1)/2`` symbol pairs are dealt over the ranks
(:func:`repro.elastic.sharding.shard_pairs`, the tree's one placement
rule), each rank computes the correlations of its shard (using the
vectorised batched kernels), and the partial results are combined with
one collective.  Because a pair's computation is independent of every
other pair's, the decomposition is embarrassingly parallel and the
combine step is exact — which is exactly why "a parallel algorithm is
essential for real-time trading" scales (paper §III).

This engine is for a consumer that needs *every* series on *every* rank.
Approach 3 does not: its ranks trade the pairs they correlate
(:mod:`repro.backtest.distributed`) and no series leaves its rank.

All entry points are SPMD: every rank calls with the same arguments plus
its own communicator, and every rank returns the full result.
"""

from __future__ import annotations

import numpy as np

from repro.corr.batch import BatchWorkspace, batch_pair_series
from repro.corr.maronna import MaronnaConfig
from repro.corr.measures import CorrelationType, all_pairs, check_pairs
from repro.elastic.sharding import shard_pairs
from repro.mpi.api import SUM, Comm
from repro.obs import comm_obs


class ParallelCorrelationEngine:
    """Distribute pairwise correlation work across the ranks of a Comm.

    One treatment per engine; each rank drives its pair shard through
    :func:`repro.corr.batch.batch_pair_series`, and results are
    bitwise-identical across rank counts and MPI backends.
    """

    def __init__(
        self,
        ctype: CorrelationType | str = CorrelationType.PEARSON,
        config: MaronnaConfig | None = None,
    ):
        self.ctype = CorrelationType.parse(ctype)
        self.config = config
        self._workspace = BatchWorkspace()

    def _my_block(
        self, comm: Comm, returns: np.ndarray, m: int, pairs
    ) -> tuple[list[tuple[int, int]], np.ndarray]:
        """This rank's shard of ``pairs`` and its ``(windows, shard)`` block."""
        mine = shard_pairs(pairs, comm.size)[comm.rank]
        block = batch_pair_series(
            returns, m, self.ctype, self.config, pairs=mine,
            obs=comm_obs(comm), workspace=self._workspace,
        )
        return mine, block

    def pair_series(
        self,
        comm: Comm,
        returns: np.ndarray,
        m: int,
        pairs: list[tuple[int, int]],
    ) -> dict[tuple[int, int], np.ndarray]:
        """Rolling correlation series for each requested pair, SPMD.

        One all-gather of the ranks' blocks; every rank returns the
        complete ``{pair: series}`` mapping (columns of the gathered
        blocks), indexed as :func:`repro.corr.batch.corr_series`.
        """
        returns = np.asarray(returns, dtype=float)
        if returns.ndim != 2:
            raise ValueError(f"need (T, n) returns, got shape {returns.shape}")
        # Every rank checks the whole list, so a bad pair fails all ranks
        # together instead of stranding the others in the all-gather.
        pairs = check_pairs(pairs, returns.shape[1])
        return {
            pair: block[:, p]
            for shard, block in comm.allgather(
                self._my_block(comm, returns, m, pairs)
            )
            for p, pair in enumerate(shard)
        }

    def matrix_series(
        self, comm: Comm, returns: np.ndarray, m: int
    ) -> np.ndarray:
        """Series of full correlation matrices, SPMD; shape (T-m+1, n, n).

        The parallel counterpart of
        :func:`repro.corr.batch.corr_matrix_series` — each rank computes
        its pair shard's series, assembled by SUM all-reduce (off-shard
        entries are zero, so the sum is exact assembly, not accumulation).
        """
        returns = np.asarray(returns, dtype=float)
        if returns.ndim != 2:
            raise ValueError(f"need (T, n) returns, got shape {returns.shape}")
        n = returns.shape[1]
        mine, block = self._my_block(comm, returns, m, all_pairs(n))
        partial = np.zeros((block.shape[0], n, n))
        idx_i = np.asarray([i for i, _ in mine], dtype=np.intp)
        idx_j = np.asarray([j for _, j in mine], dtype=np.intp)
        partial[:, idx_i, idx_j] = block
        partial[:, idx_j, idx_i] = block
        full = comm.allreduce(partial, op=SUM)
        full[:, np.arange(n), np.arange(n)] = 1.0
        return full
