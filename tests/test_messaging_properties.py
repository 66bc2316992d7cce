"""Property-based collective correctness and timing shapes (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.messaging import SUM, run_spmd
from repro.network import (
    FatTreeTopology,
    SingleSwitchTopology,
    ThreeLevelFatTreeTopology,
)


class TestCollectiveProperties:
    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["recursive_doubling", "ring", "rabenseifner"]),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_allreduce_equals_numpy_for_any_shape(self, size, algorithm,
                                                  length, seed):
        """Any rank count x any vector length x any algorithm == numpy."""
        rng = np.random.default_rng(seed)
        locals_ = [rng.standard_normal(length) for _ in range(size)]
        expected = np.sum(locals_, axis=0)

        def body(comm):
            total = yield from comm.allreduce(locals_[comm.rank], SUM,
                                              algorithm=algorithm)
            return total

        result = run_spmd(size, body)
        for value in result.results:
            assert np.allclose(value, expected, atol=1e-9)

    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=0, max_value=9))
    @settings(max_examples=25, deadline=None)
    def test_bcast_from_any_root(self, size, root_seed):
        root = root_seed % size

        def body(comm):
            payload = ("secret", root) if comm.rank == root else None
            received = yield from comm.bcast(payload, root=root)
            return received

        result = run_spmd(size, body)
        assert all(v == ("secret", root) for v in result.results)

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_allgather_equals_gather_plus_bcast(self, size):
        def body(comm):
            fast = yield from comm.allgather(comm.rank * 3)
            gathered = yield from comm.gather(comm.rank * 3, root=0)
            slow = yield from comm.bcast(gathered, root=0)
            return fast, slow

        result = run_spmd(size, body)
        for fast, slow in result.results:
            assert fast == slow

    @given(st.integers(min_value=1, max_value=9),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_alltoall_involution(self, size, seed):
        """alltoall twice with transposed indexing restores the input."""
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 1000, size=(size, size))

        def body(comm):
            row = list(matrix[comm.rank])
            column = yield from comm.alltoall(row)
            back = yield from comm.alltoall(column)
            return back

        result = run_spmd(size, body)
        for rank, back in enumerate(result.results):
            assert back == list(matrix[rank])


class TestTimingShapes:
    """Virtual-time claims that must hold for the E4/E5 benches to mean
    anything."""

    def _pingpong_time(self, technology, nbytes, topology=None):
        def body(comm):
            payload = np.zeros(nbytes, dtype=np.uint8)
            if comm.rank == 0:
                yield from comm.send(payload, 1, tag=1)
                yield from comm.recv(1, tag=2)
            else:
                data = yield from comm.recv(0, tag=1)
                yield from comm.send(data, 0, tag=2)
            return comm.sim.now

        result = run_spmd(2, body, technology=technology, topology=topology)
        return result.elapsed

    def test_faster_network_is_faster(self):
        slow = self._pingpong_time("fast_ethernet", 1 << 16)
        fast = self._pingpong_time("infiniband_4x", 1 << 16)
        assert fast < slow / 10

    def test_latency_dominates_small_bandwidth_dominates_large(self):
        """GigE vs IB-4x gap is modest for tiny messages (latency regime)
        and near the 8x bandwidth ratio for huge ones."""
        small_ratio = (self._pingpong_time("gigabit_ethernet", 8)
                       / self._pingpong_time("infiniband_4x", 8))
        large_ratio = (self._pingpong_time("gigabit_ethernet", 1 << 22)
                       / self._pingpong_time("infiniband_4x", 1 << 22))
        assert large_ratio > small_ratio
        assert large_ratio == pytest.approx(8.0, rel=0.15)

    def test_allreduce_scales_logarithmically(self):
        """Recursive-doubling allreduce time grows ~log2(p), far slower
        than linearly."""
        def body(comm):
            yield from comm.allreduce(1.0, SUM)
            return comm.sim.now

        t4 = run_spmd(4, body, technology="infiniband_4x").elapsed
        t16 = run_spmd(16, body, technology="infiniband_4x").elapsed
        assert t16 < 3 * t4  # log: 4 rounds vs 2 rounds => ~2x

    def test_near_neighbour_cheaper_than_far(self):
        topology = ThreeLevelFatTreeTopology(4)

        def body(comm):
            if comm.rank == 0:
                yield from comm.send(b"x", 1, tag=1)       # 2 hops
                yield from comm.send(b"x", 15, tag=1)      # 6 hops
            elif comm.rank in (1, 15):
                yield from comm.recv(0, tag=1)
            return comm.sim.now

        result = run_spmd(16, body, technology="infiniband_4x",
                          topology=topology)
        assert result.finish_times[1] < result.finish_times[15]

    def test_oversubscription_slows_alltoall(self):
        def body(comm):
            payload = [np.zeros(1 << 14, dtype=np.uint8)
                       for _ in range(comm.size)]
            yield from comm.alltoall(payload)
            return comm.sim.now

        full = run_spmd(
            16, body, technology="infiniband_4x",
            topology=FatTreeTopology(16, hosts_per_leaf=4)).elapsed
        oversubscribed = run_spmd(
            16, body, technology="infiniband_4x",
            topology=FatTreeTopology(16, hosts_per_leaf=4, spines=1)).elapsed
        assert oversubscribed > full

    def test_contention_only_adds_time(self):
        def body(comm):
            payload = [np.zeros(4096, dtype=np.uint8)
                       for _ in range(comm.size)]
            yield from comm.alltoall(payload)
            return comm.sim.now

        topo = SingleSwitchTopology(8)
        with_contention = run_spmd(8, body, topology=topo).elapsed
        without = run_spmd(8, body, topology=SingleSwitchTopology(8),
                           contention=False).elapsed
        assert with_contention >= without
