"""Collective correctness across sizes, roots, and algorithms."""

import numpy as np
import pytest

from repro.messaging import MAX, SUM, run_spmd

SIZES = [1, 2, 3, 4, 5, 7, 8, 16]


class TestBarrier:
    @pytest.mark.parametrize("size", SIZES)
    def test_no_rank_escapes_early(self, size):
        """Every rank's barrier-exit time must be >= every rank's entry
        time (the defining property of a barrier)."""
        def body(comm):
            yield comm.sim.timeout(comm.rank * 1e-3)  # staggered entry
            entry = comm.sim.now
            yield from comm.barrier()
            return entry, comm.sim.now

        result = run_spmd(size, body)
        entries = [r[0] for r in result.results]
        exits = [r[1] for r in result.results]
        assert min(exits) >= max(entries) - 1e-12


class TestBcast:
    @pytest.mark.parametrize("size", SIZES)
    def test_everyone_gets_root_value(self, size):
        def body(comm):
            payload = {"data": 42} if comm.rank == 0 else None
            received = yield from comm.bcast(payload, root=0)
            return received

        result = run_spmd(size, body)
        assert all(r == {"data": 42} for r in result.results)

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_any_root(self, root):
        def body(comm):
            payload = f"from{comm.rank}" if comm.rank == root else None
            received = yield from comm.bcast(payload, root=root)
            return received

        result = run_spmd(3, body)
        assert all(r == f"from{root}" for r in result.results)

    def test_array_payload(self):
        def body(comm):
            payload = np.arange(1000.0) if comm.rank == 0 else None
            received = yield from comm.bcast(payload, root=0)
            return float(received.sum())

        result = run_spmd(6, body)
        assert all(v == pytest.approx(999 * 1000 / 2) for v in result.results)

    def test_root_range_checked(self):
        def body(comm):
            yield from comm.bcast(1, root=9)

        with pytest.raises(IndexError):
            run_spmd(2, body)


class TestAllreduce:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("algorithm",
                             ["recursive_doubling", "ring", "rabenseifner"])
    def test_scalar_sum_everywhere(self, size, algorithm):
        def body(comm):
            value = yield from comm.allreduce(float(comm.rank), SUM,
                                              algorithm=algorithm)
            return value

        result = run_spmd(size, body)
        expected = size * (size - 1) / 2
        assert all(v == pytest.approx(expected) for v in result.results)

    @pytest.mark.parametrize("size", [2, 3, 4, 6, 8])
    @pytest.mark.parametrize("algorithm",
                             ["recursive_doubling", "ring", "rabenseifner"])
    def test_array_sum_matches_numpy(self, size, algorithm):
        def body(comm):
            local = np.arange(64.0) * (comm.rank + 1)
            total = yield from comm.allreduce(local, SUM, algorithm=algorithm)
            return total

        result = run_spmd(size, body)
        expected = np.arange(64.0) * sum(range(1, size + 1))
        for value in result.results:
            assert np.allclose(value, expected)

    def test_array_shape_preserved(self):
        def body(comm):
            local = np.ones((8, 4)) * comm.rank
            total = yield from comm.allreduce(local, SUM, algorithm="ring")
            return total.shape

        result = run_spmd(4, body)
        assert all(shape == (8, 4) for shape in result.results)

    def test_max_operator(self):
        def body(comm):
            local = np.array([comm.rank, -comm.rank], dtype=float)
            best = yield from comm.allreduce(local, MAX)
            return best

        result = run_spmd(5, body)
        assert np.array_equal(result.results[0], [4.0, 0.0])

    def test_unknown_algorithm_rejected(self):
        def body(comm):
            yield from comm.allreduce(1.0, SUM, algorithm="telepathy")

        with pytest.raises(ValueError, match="telepathy"):
            run_spmd(2, body)

    def test_ring_falls_back_for_short_vectors(self):
        """A 2-element vector on 4 ranks cannot be ring-chunked; the
        dispatcher must still return the right answer."""
        def body(comm):
            value = yield from comm.allreduce(np.ones(2), SUM,
                                              algorithm="ring")
            return value

        result = run_spmd(4, body)
        assert np.allclose(result.results[0], [4.0, 4.0])


class TestGatherScatter:
    @pytest.mark.parametrize("size", SIZES)
    def test_gather_ordered_by_rank(self, size):
        def body(comm):
            gathered = yield from comm.gather(comm.rank * 10, root=0)
            return gathered

        result = run_spmd(size, body)
        assert result.results[0] == [r * 10 for r in range(size)]
        assert all(v is None for v in result.results[1:])


class TestAllgatherAlltoall:
    @pytest.mark.parametrize("size", SIZES)
    def test_allgather(self, size):
        def body(comm):
            everything = yield from comm.allgather(comm.rank + 100)
            return everything

        result = run_spmd(size, body)
        expected = [r + 100 for r in range(size)]
        assert all(v == expected for v in result.results)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8])
    def test_alltoall_is_transpose(self, size):
        def body(comm):
            outgoing = [(comm.rank, dst) for dst in range(comm.size)]
            incoming = yield from comm.alltoall(outgoing)
            return incoming

        result = run_spmd(size, body)
        for rank, incoming in enumerate(result.results):
            assert incoming == [(src, rank) for src in range(size)]

    def test_alltoall_validates_length(self):
        def body(comm):
            yield from comm.alltoall([1, 2])

        with pytest.raises(ValueError, match="exactly"):
            run_spmd(3, body)


class TestCollectiveSequencing:
    def test_back_to_back_collectives_do_not_cross_talk(self):
        def body(comm):
            first = yield from comm.allreduce(1, SUM)
            second = yield from comm.allreduce(10, SUM)
            third = yield from comm.bcast(
                "x" if comm.rank == 0 else None, root=0)
            return first, second, third

        result = run_spmd(4, body)
        assert all(r == (4, 40, "x") for r in result.results)

    def test_hundred_barriers(self):
        def body(comm):
            for _ in range(100):
                yield from comm.barrier()
            return True

        assert all(run_spmd(4, body).results)
