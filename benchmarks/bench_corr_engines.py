"""Section II — correlation engine costs: Pearson vs Maronna vs Combined.

The paper's platform exists because "the robust method is computationally
expensive" and a "parallel algorithm for computing robust correlation
matrices" makes it affordable.  These benchmarks measure the per-window
cost ratio, the full-matrix cost, and the block-parallel engine against
its serial counterpart.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro import mpi
from repro.corr.batch import corr_series
from repro.corr.measures import corr_matrix
from repro.corr.parallel import ParallelCorrelationEngine

M = 100
N_SYMBOLS = 16
RNG = np.random.default_rng(2008)
_SHAPE = 0.5 * np.ones((N_SYMBOLS, N_SYMBOLS)) + 0.5 * np.eye(N_SYMBOLS)
RETURNS = RNG.normal(size=(500, N_SYMBOLS)) @ np.linalg.cholesky(_SHAPE).T


@pytest.mark.parametrize("ctype", ["pearson", "maronna", "combined"])
def test_corr_series_cost(benchmark, ctype):
    """Rolling series over one day's returns for one pair."""
    x, y = RETURNS[:, 0], RETURNS[:, 1]
    series = benchmark(corr_series, x, y, M, ctype)
    assert series.shape == (RETURNS.shape[0] - M + 1,)
    assert np.all(np.abs(series) <= 1.0)


@pytest.mark.parametrize("ctype", ["pearson", "maronna"])
def test_corr_matrix_cost(benchmark, ctype):
    """One full correlation matrix over a 16-symbol window."""
    window = RETURNS[:M]
    matrix = benchmark(corr_matrix, window, ctype)
    assert matrix.shape == (N_SYMBOLS, N_SYMBOLS)


def test_parallel_engine_vs_serial(benchmark):
    """Block-parallel matrix series vs the serial loop, plus cost table."""
    r = RETURNS[:300]

    def parallel_run():
        def spmd(comm):
            return ParallelCorrelationEngine("maronna").matrix_series(comm, r, M)

        return mpi.run_spmd(spmd, size=2)[0]

    result = benchmark.pedantic(parallel_run, rounds=3, iterations=1)
    assert result.shape == (300 - M + 1, N_SYMBOLS, N_SYMBOLS)

    # Per-measure cost table for the summary artefact.
    costs = {}
    for ctype in ("pearson", "maronna", "combined"):
        t0 = time.perf_counter()
        corr_series(RETURNS[:, 0], RETURNS[:, 1], M, ctype)
        costs[ctype] = time.perf_counter() - t0
    ratio = costs["maronna"] / costs["pearson"]
    lines = [
        f"Per-pair rolling correlation series ({RETURNS.shape[0]} returns, M={M}):"
    ]
    for ctype, seconds in costs.items():
        lines.append(f"  {ctype:<10} {seconds * 1e3:9.2f} ms")
    lines.append(
        f"\nMaronna / Pearson cost ratio: {ratio:.0f}x — the paper's reason "
        f"the robust measure is 'not commonly used in statistical software "
        f"packages' without a parallel engine."
    )
    emit("corr_engine_costs", "\n".join(lines))
