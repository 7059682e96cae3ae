"""Tests for the block-parallel correlation engine (SPMD)."""

import numpy as np
import pytest

from repro import mpi
from repro.corr.batch import corr_matrix_series, corr_series
from repro.corr.measures import corr_matrix
from repro.corr.parallel import ParallelCorrelationEngine
from repro.elastic.sharding import shard_pairs


class TestPartitionPairs:
    """How the engine partitions its pairs: by the tree's one placement
    rule, :func:`repro.elastic.sharding.shard_pairs`."""

    def test_exact_split(self):
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]  # 6 pairs
        blocks = shard_pairs(pairs, 3)
        assert [len(b) for b in blocks] == [2, 2, 2]
        assert sorted(sum(blocks, [])) == pairs

    def test_uneven_split_front_loaded(self):
        pairs = [(0, j) for j in range(7, 0, -1)]  # arrives in reverse
        blocks = shard_pairs(pairs, 3)
        assert [len(b) for b in blocks] == [3, 2, 2]
        assert blocks == [sorted(pairs)[r::3] for r in range(3)]

    def test_more_ranks_than_pairs(self):
        blocks = shard_pairs([(0, 1)], 4)
        assert blocks == [[(0, 1)], [], [], []]  # trailing shards empty

    def test_rejects_bad_size(self):
        for size in (0, -1):
            with pytest.raises(ValueError, match="size must be positive"):
                shard_pairs([(0, 1)], size)


@pytest.mark.parametrize("size", [1, 2, 4])
class TestParallelMatrix:
    """A one-window input: the engine's matrix series is the serial
    single-window matrix (the ``.matrix`` method these drove is gone)."""

    def test_matches_serial_pearson(self, size, correlated_returns):
        window = correlated_returns[:60]

        def prog(comm):
            return ParallelCorrelationEngine("pearson").matrix_series(
                comm, window, len(window)
            )

        results = mpi.run_spmd(prog, size=size)
        expected = corr_matrix(window, "pearson")
        for r in results:
            assert r.shape == (1,) + expected.shape
            np.testing.assert_allclose(r[0], expected, atol=1e-12)

    def test_matches_serial_maronna(self, size, correlated_returns):
        window = correlated_returns[:40, :4]

        def prog(comm):
            return ParallelCorrelationEngine("maronna").matrix_series(
                comm, window, len(window)
            )

        results = mpi.run_spmd(prog, size=size)
        expected = corr_matrix(window, "maronna")
        for r in results:
            assert r.shape == (1,) + expected.shape
            np.testing.assert_allclose(r[0], expected, atol=1e-10)


class TestParallelSeries:
    def test_pair_series_matches_serial(self, correlated_returns):
        r = correlated_returns[:90]
        pairs = [(0, 1), (2, 3), (1, 5), (0, 4), (3, 5)]

        def prog(comm):
            return ParallelCorrelationEngine("combined").pair_series(
                comm, r, 25, pairs
            )

        results = mpi.run_spmd(prog, size=3)
        for got in results:
            assert set(got) == set(pairs)
            for i, j in pairs:
                expected = corr_series(r[:, i], r[:, j], 25, "combined")
                np.testing.assert_allclose(got[(i, j)], expected, atol=1e-10)

    def test_matrix_series_matches_serial(self, correlated_returns):
        r = correlated_returns[:50, :4]

        def prog(comm):
            return ParallelCorrelationEngine("pearson").matrix_series(comm, r, 20)

        results = mpi.run_spmd(prog, size=2)
        expected = corr_matrix_series(r, 20, "pearson")
        np.testing.assert_allclose(results[0], expected, atol=1e-9)
        np.testing.assert_allclose(results[1], expected, atol=1e-9)

    def test_pair_series_validates_pairs(self, correlated_returns):
        def prog(comm):
            return ParallelCorrelationEngine().pair_series(
                comm, correlated_returns[:50], 10, [(0, 99)]
            )

        from repro.mpi.inproc import SpmdFailure

        with pytest.raises(SpmdFailure, match="invalid pair"):
            mpi.run_spmd(prog, size=1)
