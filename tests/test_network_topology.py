"""Topologies: structure, routing validity, formulas."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    FatTreeTopology,
    HypercubeTopology,
    SingleSwitchTopology,
    ThreeLevelFatTreeTopology,
    TorusTopology,
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


class TestTorus:
    def test_structure_2d(self):
        topology = TorusTopology((4, 4))
        assert topology.hosts == 16
        assert topology.num_links == 32          # 2 links per host
        assert topology.num_switches == 0        # direct network

    def test_coordinates_round_trip(self):
        topology = TorusTopology((3, 4, 5))
        for rank in range(topology.hosts):
            assert topology.rank_of(topology.coords_of(rank)) == rank

    def test_wraparound_shortens_routes(self):
        topology = TorusTopology((8,) * 2)
        # 0 -> 7 in one dimension: wrap is 1 hop, not 7.
        assert topology.hop_count(0, 7) == 1

    def test_dimension_ordered_routing_valid(self):
        topology = TorusTopology((4, 4))
        for src in range(16):
            for dst in range(16):
                assert_route_valid(topology, src, dst)

    def test_hop_count_is_manhattan_with_wrap(self):
        topology = TorusTopology((6, 6))
        src = topology.rank_of((0, 0))
        dst = topology.rank_of((2, 5))
        assert topology.hop_count(src, dst) == 2 + 1  # wrap the second dim

    def test_diameter(self):
        assert TorusTopology((8, 8)).diameter_hops() == 8
        assert TorusTopology((4, 4, 4)).diameter_hops() == 6

    def test_bisection(self):
        assert TorusTopology((8, 8)).bisection_links() == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            TorusTopology((1, 4))
        with pytest.raises(ValueError):
            TorusTopology(())


class TestHypercube:
    def test_structure(self):
        topology = HypercubeTopology(4)
        assert topology.hosts == 16
        assert topology.num_links == 16 * 4 // 2

    def test_hop_count_is_hamming_distance(self):
        topology = HypercubeTopology(5)
        assert topology.hop_count(0, 0b10110) == 3
        assert topology.diameter_hops() == 5

    def test_routes_valid(self):
        topology = HypercubeTopology(4)
        for src in range(16):
            for dst in range(16):
                assert_route_valid(topology, src, dst)

    def test_bisection(self):
        assert HypercubeTopology(4).bisection_links() == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            HypercubeTopology(0)


class TestRoutingProperties:
    @given(st.integers(min_value=2, max_value=6),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_hypercube_routes_are_shortest(self, dimension, data):
        topology = HypercubeTopology(dimension)
        src = data.draw(st.integers(0, topology.hosts - 1))
        dst = data.draw(st.integers(0, topology.hosts - 1))
        assert topology.hop_count(src, dst) == bin(src ^ dst).count("1")

    @given(st.tuples(st.integers(2, 5), st.integers(2, 5)), st.data())
    @settings(max_examples=40, deadline=None)
    def test_torus_routes_never_exceed_diameter(self, shape, data):
        topology = TorusTopology(shape)
        src = data.draw(st.integers(0, topology.hosts - 1))
        dst = data.draw(st.integers(0, topology.hosts - 1))
        assert_route_valid(topology, src, dst)
        assert topology.hop_count(src, dst) <= topology.diameter_hops()


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
    pytest.param(
        lambda: TorusTopology((4, 4)),
        dict(links=32, switches=0, switch_ports=0,
             host0_neighbours=[h(1), h(3), h(4), h(12)],
             edges_sha256="56df6d244dd995f62bfa7d6f38165bff8b826a8a48dd69b2"
                          "677fd722b9179d69",
             path=[h(0), h(3), h(15)],
             path_first_link_down=[h(0), h(12), h(15)]),
        id="torus-4x4"),
    pytest.param(
        # k=2 rings add each link twice; the graph stores it once.
        lambda: TorusTopology((2, 4)),
        dict(links=12, switches=0, switch_ports=0,
             host0_neighbours=[h(1), h(3), h(4)],
             edges_sha256="80c00a54357be240de912b4cdcf778b345939c0075eac2da"
                          "b1a7443fb6f2a2d9",
             path=[h(0), h(3), h(7)],
             path_first_link_down=[h(0), h(4), h(7)]),
        id="torus-2x4"),
    pytest.param(
        lambda: TorusTopology((3, 3, 3)),
        dict(links=81, switches=0, switch_ports=0,
             host0_neighbours=[h(1), h(2), h(3), h(6), h(9), h(18)],
             edges_sha256="bb5d58fb9272a658ace512b904e7cad242ea1c291502011b"
                          "b7ef702464c397f7",
             path=[h(0), h(2), h(8), h(26)],
             path_first_link_down=[h(0), h(6), h(8), h(26)]),
        id="torus-3x3x3"),
    pytest.param(
        lambda: HypercubeTopology(4),
        dict(links=32, switches=0, switch_ports=0,
             host0_neighbours=[h(1), h(2), h(4), h(8)],
             edges_sha256="1c1a25cbe26ea8c606dc48595dfe664bd8612a83d5295a8b"
                          "5c294fdfdcfadf2d",
             path=[h(0), h(1), h(3), h(7), h(15)],
             path_first_link_down=[h(0), h(2), h(3), h(7), h(15)]),
        id="hypercube-4"),
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
