"""Request helpers: waitall, and fabric timing properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.messaging import run_spmd
from repro.messaging.comm import waitall
from repro.network import (
    Fabric,
    FatTreeTopology,
    SingleSwitchTopology,
    ThreeLevelFatTreeTopology,
    get_interconnect,
)
from repro.sim import Simulator


class TestWaitHelpers:
    def test_waitall_returns_values_in_request_order(self):
        def body(comm):
            if comm.rank == 0:
                requests = [comm.irecv(src, tag=1)
                            for src in (3, 1, 2)]
                values = yield from waitall(requests)
                return values
            yield comm.sim.timeout(comm.rank * 1e-6)
            yield from comm.send(comm.rank, 0, tag=1)
            return None

        result = run_spmd(4, body)
        assert result.results[0] == [3, 1, 2]  # request order, not arrival

    def test_waitall_empty_is_noop(self):
        def body(comm):
            values = yield from waitall([])
            return values

        assert run_spmd(1, body).results == [[]]


class TestFabricTimingProperties:
    """The fabric's uncontended closed form must agree with what the
    simulator actually measures, for every topology and technology."""

    TOPOLOGIES = [
        lambda: SingleSwitchTopology(8),
        lambda: FatTreeTopology(8, hosts_per_leaf=4),
        lambda: ThreeLevelFatTreeTopology(4),
    ]

    @given(
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["gigabit_ethernet", "myrinet_2000",
                         "infiniband_4x"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=1 << 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_measured_equals_closed_form(self, topo_index, technology,
                                         src, dst, nbytes):
        sim = Simulator()
        fabric = Fabric(sim, self.TOPOLOGIES[topo_index](),
                        get_interconnect(technology))

        def body():
            outcome = yield from fabric.transfer_ex(src, dst, nbytes)
            return outcome.end

        measured = sim.run_process(body())
        assert measured == pytest.approx(
            fabric.uncontended_time(src, dst, nbytes), rel=1e-12)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_concurrent_disjoint_transfers_unaffected(self, pairs):
        """Transfers over disjoint host pairs finish exactly at their
        solo times — contention never charges innocents."""
        sim = Simulator()
        fabric = Fabric(sim, SingleSwitchTopology(2 * pairs),
                        get_interconnect("infiniband_4x"))
        finishes = {}

        def sender(src, dst):
            outcome = yield from fabric.transfer_ex(src, dst, 100_000)
            finishes[src] = outcome.end

        for pair in range(pairs):
            sim.process(sender(2 * pair, 2 * pair + 1))
        sim.run()
        solo = fabric.uncontended_time(0, 1, 100_000)
        for end in finishes.values():
            assert end == pytest.approx(solo, rel=1e-12)
