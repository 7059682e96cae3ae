"""Collective-operation tests across rank counts."""

import numpy as np
import pytest

from repro import mpi
from repro.mpi.api import LAND, LOR, MAX, MIN, PROD, SUM, Op
from repro.mpi.inproc import SpmdFailure

SIZES = [1, 2, 3, 4, 7]


def run(fn, size, timeout=10.0, **kw):
    return mpi.run_spmd(fn, size=size, default_timeout=timeout, **kw)


@pytest.mark.parametrize("size", SIZES)
class TestPerSize:
    def test_barrier_completes(self, size):
        def prog(comm):
            for _ in range(3):
                comm.barrier()
            return True

        assert run(prog, size) == [True] * size

    def test_bcast_from_root_zero(self, size):
        def prog(comm):
            value = {"data": [1, 2, 3]} if comm.rank == 0 else None
            return comm.bcast(value, root=0)

        results = run(prog, size)
        assert all(r == {"data": [1, 2, 3]} for r in results)

    def test_bcast_from_last_rank(self, size):
        def prog(comm):
            root = comm.size - 1
            value = "payload" if comm.rank == root else None
            return comm.bcast(value, root=root)

        assert run(prog, size) == ["payload"] * size

    def test_scatter_gather_roundtrip(self, size):
        def prog(comm):
            values = [i * i for i in range(comm.size)] if comm.rank == 0 else None
            mine = comm.scatter(values, root=0)
            assert mine == comm.rank**2
            return comm.gather(mine, root=0)

        results = run(prog, size)
        assert results[0] == [i * i for i in range(size)]
        assert all(r is None for r in results[1:])

    def test_allgather_ordered_by_rank(self, size):
        def prog(comm):
            return comm.allgather(chr(ord("a") + comm.rank))

        expected = [chr(ord("a") + i) for i in range(size)]
        assert run(prog, size) == [expected] * size

    def test_allreduce_sum(self, size):
        def prog(comm):
            return comm.allreduce(comm.rank + 1, op=SUM)

        assert run(prog, size) == [size * (size + 1) // 2] * size

    def test_reduce_at_nonzero_root(self, size):
        root = size - 1

        def prog(comm):
            return comm.reduce(comm.rank, op=MAX, root=root)

        results = run(prog, size)
        assert results[root] == size - 1
        assert all(r is None for i, r in enumerate(results) if i != root)

    def test_alltoall_transpose(self, size):
        def prog(comm):
            sent = [(comm.rank, dest) for dest in range(comm.size)]
            return comm.alltoall(sent)

        results = run(prog, size)
        for r, got in enumerate(results):
            assert got == [(src, r) for src in range(size)]

    def test_scan_prefix_sums(self, size):
        def prog(comm):
            return comm.scan(comm.rank + 1, op=SUM)

        assert run(prog, size) == [
            (r + 1) * (r + 2) // 2 for r in range(size)
        ]


class TestOperators:
    @pytest.mark.parametrize(
        "op,values,expected",
        [
            (SUM, [1, 2, 3], 6),
            (PROD, [2, 3, 4], 24),
            (MAX, [5, 1, 3], 5),
            (MIN, [5, 1, 3], 1),
            (LAND, [True, True, False], False),
            (LOR, [False, False, True], True),
        ],
    )
    def test_builtin_ops(self, op, values, expected):
        def prog(comm):
            return comm.allreduce(values[comm.rank], op=op)

        assert run(prog, 3) == [expected] * 3

    def test_custom_op(self):
        concat = Op.create(lambda a, b: a + b, name="concat")

        def prog(comm):
            return comm.reduce([comm.rank], op=concat, root=0)

        assert run(prog, 4)[0] == [0, 1, 2, 3]

    def test_noncommutative_op_folds_in_rank_order(self):
        # String concatenation is associative but not commutative.
        concat = Op.create(lambda a, b: a + b)

        def prog(comm):
            return comm.allreduce(str(comm.rank), op=concat)

        assert run(prog, 5) == ["01234"] * 5

    def test_numpy_array_reduction(self):
        def prog(comm):
            return comm.allreduce(np.full(4, comm.rank, dtype=float), op=SUM)

        results = run(prog, 3)
        for r in results:
            np.testing.assert_array_equal(r, np.full(4, 3.0))

    def test_op_create_rejects_noncallable(self):
        with pytest.raises(TypeError):
            Op.create("not callable")

    def test_reduce_rejects_raw_callable(self):
        def prog(comm):
            comm.reduce(1, op=lambda a, b: a + b)

        with pytest.raises(SpmdFailure, match="mpi.Op"):
            run(prog, 2)


class TestErrors:
    # Where only the root raises, its peer waits out one whole timeout.
    def test_scatter_wrong_length(self):
        def prog(comm):
            values = [1] if comm.rank == 0 else None
            return comm.scatter(values, root=0)

        with pytest.raises(SpmdFailure, match="exactly 2"):
            run(prog, 2, timeout=1.0)

    def test_scatter_root_without_values(self):
        def prog(comm):
            return comm.scatter(None, root=0)

        with pytest.raises(SpmdFailure, match="must supply"):
            run(prog, 2, timeout=1.0)

    def test_bad_root(self):
        def prog(comm):
            return comm.bcast("x", root=5)

        with pytest.raises(SpmdFailure, match="root rank 5"):
            run(prog, 2)

    def test_alltoall_wrong_length(self):
        def prog(comm):
            return comm.alltoall([1, 2, 3])

        with pytest.raises(SpmdFailure, match="exactly 2"):
            run(prog, 2)


class TestPhaseSafety:
    def test_back_to_back_collectives_do_not_cross_talk(self):
        def prog(comm):
            first = comm.allreduce(comm.rank, op=SUM)
            second = comm.allreduce(comm.rank * 10, op=SUM)
            third = comm.allgather(comm.rank)
            return (first, second, third)

        for first, second, third in run(prog, 4):
            assert first == 6
            assert second == 60
            assert third == [0, 1, 2, 3]

    def test_collectives_interleaved_with_p2p(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("side-channel", dest=1, tag=50)
            total = comm.allreduce(1, op=SUM)
            extra = comm.recv(source=0, tag=50) if comm.rank == 1 else None
            return (total, extra)

        results = run(prog, 3)
        assert [r[0] for r in results] == [3, 3, 3]
        assert results[1][1] == "side-channel"
