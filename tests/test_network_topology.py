"""Topologies: structure, routing validity, formulas."""

import hashlib

import pytest

from repro.network import (
    FatTreeTopology,
    SingleSwitchTopology,
    ThreeLevelFatTreeTopology,
    canonical_link,
    get_interconnect,
)
from repro.network.design import price_fabric


def assert_route_valid(topology, src, dst):
    """A route must be a connected, correctly-oriented edge path."""
    route = topology.route(src, dst)
    if src == dst:
        assert route == []
        return
    position = topology.host_node(src)
    for edge in route:
        assert topology.graph.has_edge(*edge), f"missing edge {edge}"
        origin, target = edge
        assert position == origin, f"route discontinuous at {edge}"
        position = target
    assert position == topology.host_node(dst)


class TestSingleSwitch:
    def test_structure(self):
        topology = SingleSwitchTopology(8)
        assert topology.num_switches == 1
        assert topology.num_links == 8

    def test_all_pairs_two_hops(self):
        topology = SingleSwitchTopology(6)
        for src in range(6):
            for dst in range(6):
                assert_route_valid(topology, src, dst)
                if src != dst:
                    assert topology.hop_count(src, dst) == 2
        assert topology.diameter_hops() == 2

    def test_bisection(self):
        assert SingleSwitchTopology(8).bisection_links() == 4

    def test_host_range_checked(self):
        with pytest.raises(IndexError):
            SingleSwitchTopology(4).host_node(4)
        with pytest.raises(ValueError):
            SingleSwitchTopology(0)


class TestFatTree:
    def test_structure_full_bisection(self):
        topology = FatTreeTopology(64, hosts_per_leaf=16)
        assert topology.num_leaves == 4
        assert topology.num_spines == 16
        assert topology.oversubscription == pytest.approx(1.0)
        # Leaf-spine links + host links.
        assert topology.num_links == 4 * 16 + 64

    def test_oversubscribed(self):
        topology = FatTreeTopology(64, hosts_per_leaf=16, spines=4)
        assert topology.oversubscription == pytest.approx(4.0)
        assert topology.bisection_links() == 2 * 4

    def test_intra_leaf_routes_two_hops(self):
        topology = FatTreeTopology(32, hosts_per_leaf=8)
        assert topology.hop_count(0, 7) == 2

    def test_inter_leaf_routes_four_hops(self):
        topology = FatTreeTopology(32, hosts_per_leaf=8)
        assert topology.hop_count(0, 31) == 4
        assert topology.diameter_hops() == 4

    def test_routes_valid_everywhere(self):
        topology = FatTreeTopology(24, hosts_per_leaf=8, spines=4)
        for src in range(24):
            for dst in range(24):
                assert_route_valid(topology, src, dst)

    def test_spine_choice_deterministic(self):
        topology = FatTreeTopology(64, hosts_per_leaf=8)
        assert topology.route(0, 63) == topology.route(0, 63)

    def test_spine_spreading(self):
        """Different pairs should not all share one spine."""
        topology = FatTreeTopology(64, hosts_per_leaf=8)
        spines = {topology.route(src, 63)[1][1] for src in range(8)}
        assert len(spines) > 1

    def test_partial_last_leaf(self):
        topology = FatTreeTopology(20, hosts_per_leaf=8)
        assert topology.num_leaves == 3
        assert_route_valid(topology, 0, 19)


def h(rank):
    """Host graph node."""
    return ("h", rank)


def s(index):
    """Switch graph node."""
    return ("s", index)


def _path(route):
    """Node sequence of a directed-edge route (``None`` stays ``None``)."""
    if not route:
        return route
    return [route[0][0], *(target for _, target in route)]


# Every family's fabric graph, pinned from the networkx-backed build.
# ``path`` is the base-class BFS (or the fat tree's override) from host 0
# to the last host; ``path_first_link_down`` repeats it with that route's
# first link out of service.
GRAPH_CASES = [
    pytest.param(
        lambda: SingleSwitchTopology(1),
        dict(links=1, switches=1, switch_ports=1, host0_neighbours=[s(0)],
             edges_sha256="bd1ca7e4e8b7eb951f478f4bfc1877281d68fb7dce9398ac"
                          "533e39ee5d6dfef4",
             path=[], path_first_link_down=None),
        id="single-1"),
    pytest.param(
        lambda: SingleSwitchTopology(8),
        dict(links=8, switches=1, switch_ports=8, host0_neighbours=[s(0)],
             edges_sha256="b9c2a75cadffd698185e16f3be02f586cc080af1c95fea13"
                          "86c39867c9a6a25d",
             path=[h(0), s(0), h(7)], path_first_link_down=None),
        id="single-8"),
    pytest.param(
        lambda: FatTreeTopology(40, hosts_per_leaf=8, spines=3),
        dict(links=55, switches=8, switch_ports=70, host0_neighbours=[s(0)],
             edges_sha256="5b6c24c8b557ec61d974e409abe392f403476f24ac41b780"
                          "9ec76723bd563e88",
             path=[h(0), s(0), s(5), s(4), h(39)],
             path_first_link_down=None),
        id="fattree-40x8x3"),
    pytest.param(
        lambda: ThreeLevelFatTreeTopology(4),
        dict(links=48, switches=20, switch_ports=80, host0_neighbours=[s(0)],
             edges_sha256="ee58f207eb766d4789120399a751a5bd278582761b5f4a38"
                          "14cce93e761d3db5",
             path=[h(0), s(0), s(8), s(16), s(14), s(7), h(15)],
             path_first_link_down=None),
        id="fattree3-k4"),
]


class TestGraphPinned:
    @pytest.mark.parametrize("build, pins", GRAPH_CASES)
    def test_structure(self, build, pins):
        topology = build()
        graph = topology.graph
        assert topology.num_links == pins["links"]
        assert topology.num_switches == pins["switches"]
        assert len(list(graph.nodes)) == topology.hosts + pins["switches"]
        edges = sorted(canonical_link(a, b) for a, b in graph.edges)
        assert len(set(edges)) == len(edges) == pins["links"]
        digest = hashlib.sha256(repr(edges).encode()).hexdigest()
        assert digest == pins["edges_sha256"]
        for a, b in edges:
            assert graph.has_edge(a, b) and graph.has_edge(b, a)
        assert not graph.has_edge(h(0), ("x", 0))
        assert not graph.has_edge(("x", 0), h(0))
        assert (s(0) in graph) == (pins["switches"] > 0)
        assert h(topology.hosts - 1) in graph
        assert h(topology.hosts) not in graph
        assert sorted(graph.neighbors(h(0))) == pins["host0_neighbours"]
        bill = price_fabric(topology, get_interconnect("gigabit_ethernet"))
        assert bill.switch_ports == pins["switch_ports"]

    @pytest.mark.parametrize("build, pins", GRAPH_CASES)
    def test_route_avoiding(self, build, pins):
        topology = build()
        dst = topology.hosts - 1
        route = topology.route_avoiding(0, dst)
        assert _path(route) == pins["path"]
        if route:
            first_link = frozenset({canonical_link(*route[0])})
            degraded = topology.route_avoiding(0, dst, down_links=first_link)
            assert _path(degraded) == pins["path_first_link_down"]
        # Host 0 cut off from every neighbour: no route to anywhere else.
        cut = frozenset(pins["host0_neighbours"])
        expected = [] if dst == 0 else None
        assert topology.route_avoiding(0, dst, down_nodes=cut) == expected

    def test_route_avoiding_finds_the_next_shortest_path(self):
        """The base-class BFS, which the three-level fat tree falls back
        to under faults, routes around a down uplink or core group."""
        topology = ThreeLevelFatTreeTopology(4)
        assert _path(topology.route_avoiding(0, 15)) == [
            h(0), s(0), s(8), s(16), s(14), s(7), h(15)]
        around = [h(0), s(0), s(9), s(18), s(15), s(7), h(15)]
        uplink = frozenset({canonical_link(s(0), s(8))})
        assert _path(topology.route_avoiding(
            0, 15, down_links=uplink)) == around
        cores = frozenset({s(16), s(17)})
        degraded = topology.route_avoiding(0, 15, down_nodes=cores)
        assert _path(degraded) == around
        for a, b in degraded:
            assert topology.graph.has_edge(a, b)
        # Both of the edge switch's uplinks down: no path leaves it.
        both = uplink | {canonical_link(s(0), s(9))}
        assert topology.route_avoiding(0, 15, down_links=both) is None
        # Every core down cuts the pods apart, but not a pod inside.
        all_cores = frozenset(s(index) for index in range(16, 20))
        assert topology.route_avoiding(0, 15, down_nodes=all_cores) is None
        assert _path(topology.route_avoiding(
            0, 3, down_nodes=all_cores)) == [h(0), s(0), s(8), s(1), h(3)]
