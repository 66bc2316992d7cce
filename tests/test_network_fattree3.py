"""Three-level fat tree and fabric pricing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.messaging import SUM, run_spmd
from repro.network import (
    FatTreeTopology,
    ThreeLevelFatTreeTopology,
    compare_fabrics,
    get_interconnect,
    price_fabric,
)


def assert_route_valid(topology, src, dst):
    route = topology.route(src, dst)
    if src == dst:
        assert route == []
        return
    position = topology.host_node(src)
    for origin, target in route:
        assert topology.graph.has_edge(origin, target)
        assert position == origin
        position = target
    assert position == topology.host_node(dst)


class TestStructure:
    @pytest.mark.parametrize("radix,hosts,switches", [
        (2, 2, 5),        # k=2: 2 hosts, 2 edges + 2 aggs + 1 core
        (4, 16, 20),      # k=4: 16 hosts, 8 + 8 + 4
        (6, 54, 45),      # k=6: 54 hosts, 18 + 18 + 9
    ])
    def test_counts_follow_the_formulas(self, radix, hosts, switches):
        topology = ThreeLevelFatTreeTopology(radix)
        assert topology.hosts == hosts == radix ** 3 // 4
        assert topology.num_switches == switches
        assert topology.num_pods == radix

    def test_odd_or_tiny_radix_rejected(self):
        with pytest.raises(ValueError):
            ThreeLevelFatTreeTopology(3)
        with pytest.raises(ValueError):
            ThreeLevelFatTreeTopology(0)

    def test_radix_for_hosts(self):
        assert ThreeLevelFatTreeTopology.radix_for_hosts(1) == 2
        assert ThreeLevelFatTreeTopology.radix_for_hosts(16) == 4
        assert ThreeLevelFatTreeTopology.radix_for_hosts(17) == 6
        assert ThreeLevelFatTreeTopology.radix_for_hosts(3456) == 24

    def test_full_bisection(self):
        topology = ThreeLevelFatTreeTopology(4)
        assert topology.bisection_links() == 8


class TestRouting:
    def test_all_pairs_valid_k4(self):
        topology = ThreeLevelFatTreeTopology(4)
        for src in range(topology.hosts):
            for dst in range(topology.hosts):
                assert_route_valid(topology, src, dst)

    def test_hop_counts_by_locality(self):
        topology = ThreeLevelFatTreeTopology(4)
        # Same edge switch: hosts 0 and 1.
        assert topology.hop_count(0, 1) == 2
        # Same pod, different edge: hosts 0 and 2.
        assert topology.pod_of(0) == topology.pod_of(2)
        assert topology.hop_count(0, 2) == 4
        # Different pods: 6 hops through the core.
        assert topology.pod_of(0) != topology.pod_of(15)
        assert topology.hop_count(0, 15) == 6
        assert topology.diameter_hops() == 6

    def test_deterministic(self):
        topology = ThreeLevelFatTreeTopology(6)
        assert topology.route(0, 53) == topology.route(0, 53)

    def test_core_spreading(self):
        """Different host pairs use different core switches."""
        topology = ThreeLevelFatTreeTopology(4)
        cores = set()
        for src in range(4):
            for dst in range(12, 16):
                for edge in topology.route(src, dst):
                    name, index = edge[1]
                    if name == "s" and index >= topology._core_base:
                        cores.add(index)
        assert len(cores) > 1

    @given(st.sampled_from([2, 4, 6]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_pairs_valid(self, radix, data):
        topology = ThreeLevelFatTreeTopology(radix)
        src = data.draw(st.integers(0, topology.hosts - 1))
        dst = data.draw(st.integers(0, topology.hosts - 1))
        assert_route_valid(topology, src, dst)
        assert topology.hop_count(src, dst) <= 6


class TestEndToEnd:
    def test_collectives_over_three_tiers(self):
        def body(comm):
            total = yield from comm.allreduce(comm.rank, SUM)
            return total

        topology = ThreeLevelFatTreeTopology(4)
        result = run_spmd(16, body, technology="infiniband_4x",
                          topology=topology)
        assert all(v == 120 for v in result.results)

    def test_inter_pod_slower_than_intra_edge(self):
        def body(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(1), 1, tag=1)      # 2 hops
                second = comm.sim.now
                yield from comm.send(np.zeros(1), 15, tag=1)     # 6 hops
                return second
            if comm.rank in (1, 15):
                yield from comm.recv(0, tag=1)
            return comm.sim.now

        result = run_spmd(16, body, technology="infiniband_4x",
                          topology=ThreeLevelFatTreeTopology(4))
        near = result.finish_times[1]
        far = result.finish_times[15] - result.results[0]
        # Each message travels alone; the four extra hops cost their
        # switch latency and nothing else.
        hop = get_interconnect("infiniband_4x").hop_latency
        assert far - near == pytest.approx(4 * hop)


class TestFabricPricing:
    def test_port_accounting(self):
        technology = get_interconnect("infiniband_4x")
        bill = price_fabric(FatTreeTopology(8, hosts_per_leaf=4),
                            technology)
        # 8 host links (1 switch port + 1 NIC each) + 2x4 leaf-spine
        # links (2 switch ports each).
        assert bill.nics == 8
        assert bill.switch_ports == 8 + 16
        assert bill.total_dollars == pytest.approx(
            (8 + 24) * technology.cost_per_port)

    def test_oversubscription_is_a_bandwidth_discount(self):
        """Cheaper fabrics cost less per host but more per unit of
        bisection — the design trade in one table."""
        bills = {bill.topology_name: bill
                 for bill in compare_fabrics(64,
                                             get_interconnect("infiniband_4x"))}
        full = bills["leaf-spine 1:1"]
        quarter = bills["leaf-spine 4:1"]
        assert quarter.dollars_per_host < full.dollars_per_host
        assert (quarter.dollars_per_bisection_link
                > full.dollars_per_bisection_link)

    def test_three_level_appears_at_scale(self):
        technology = get_interconnect("infiniband_4x")
        names = [bill.topology_name
                 for bill in compare_fabrics(128, technology)]
        assert any("3-level" in name for name in names)

    def test_validation(self):
        with pytest.raises(ValueError):
            compare_fabrics(1, get_interconnect("infiniband_4x"))
