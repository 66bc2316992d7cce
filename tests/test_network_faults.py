"""Fabric fault injection: down windows, degraded routing, loss."""

import pytest

from repro.network import (
    DownWindow,
    Fabric,
    FabricFaultPlan,
    NetworkUnreachable,
    TransferDropped,
    canonical_link,
    get_interconnect,
)
from repro.sim import RandomStreams, Simulator
from tests.conftest import drive_transfer as run_transfer
from tests.conftest import small_fat_tree as fat_tree


class TestCanonicalLink:
    def test_orders_endpoints(self):
        assert canonical_link(("s", 1), ("h", 0)) == (("h", 0), ("s", 1))
        assert canonical_link(("h", 0), ("s", 1)) == (("h", 0), ("s", 1))


class TestRouteAvoiding:
    def test_no_faults_matches_normal_route(self):
        topo = fat_tree()
        assert topo.route_avoiding(0, 2) == topo.route(0, 2)

    def test_reroutes_around_down_spine_link(self):
        topo = fat_tree()
        normal = topo.route(0, 2)
        spine = normal[1][1]  # the spine the default route uses
        down = frozenset({canonical_link(("s", 0), spine)})
        degraded = topo.route_avoiding(0, 2, down_links=down)
        assert degraded is not None
        assert all(canonical_link(a, b) not in down for a, b in degraded)
        assert degraded[0] == (("h", 0), ("s", 0))  # leaf link intact

    def test_reroutes_around_down_spine_node(self):
        topo = fat_tree()
        spine = topo.route(0, 2)[1][1]
        degraded = topo.route_avoiding(0, 2,
                                       down_nodes=frozenset({spine}))
        assert degraded is not None
        assert all(spine not in edge for edge in degraded)

    def test_down_host_link_is_unreachable(self):
        topo = fat_tree()
        down = frozenset({canonical_link(("h", 0), ("s", 0))})
        assert topo.route_avoiding(0, 2, down_links=down) is None

    def test_down_leaf_switch_is_unreachable(self):
        topo = fat_tree()
        leaf = topo.route(0, 2)[0][1]
        assert topo.route_avoiding(0, 2,
                                   down_nodes=frozenset({leaf})) is None

    def test_intra_leaf_route_ignores_spine_faults(self):
        topo = fat_tree()
        down = frozenset({("s", 2), ("s", 3)})  # both spines dead
        route = topo.route_avoiding(0, 1, down_nodes=down)
        assert route is not None and len(route) == 2


class TestDownWindow:
    def test_half_open_semantics(self):
        window = DownWindow(1.0, 2.0)
        assert not window.active_at(0.5)
        assert window.active_at(1.0)
        assert window.active_at(1.999)
        assert not window.active_at(2.0)

    def test_overlaps(self):
        window = DownWindow(1.0, 2.0)
        assert window.overlaps(0.0, 1.5)
        assert window.overlaps(1.5, 10.0)
        assert not window.overlaps(0.0, 1.0)
        assert not window.overlaps(2.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DownWindow(2.0, 1.0)
        with pytest.raises(ValueError):
            DownWindow(-1.0, 1.0)


class TestFabricFaultPlan:
    def test_probability_validation(self):
        rng = RandomStreams(0).get("t")
        with pytest.raises(ValueError):
            FabricFaultPlan(drop_probability=1.5, rng=rng)
        with pytest.raises(ValueError):
            FabricFaultPlan(drop_probability=0.6,
                            corrupt_probability=0.6, rng=rng)
        with pytest.raises(ValueError):
            FabricFaultPlan(drop_probability=0.1)  # rng required

    def test_down_queries(self):
        plan = (FabricFaultPlan()
                .link_down(("h", 0), ("s", 0), 1.0, 2.0)
                .node_down(("s", 2), 5.0, 6.0))
        assert plan.down_links_at(1.5) == frozenset(
            {canonical_link(("h", 0), ("s", 0))})
        assert plan.down_links_at(3.0) == frozenset()
        assert plan.down_nodes_at(5.0) == frozenset({("s", 2)})
        assert plan.link_outages == 1

    def test_has_outages_only_with_link_or_node_windows(self):
        rng = RandomStreams(0).get("t")
        assert not FabricFaultPlan().has_outages
        oneway = FabricFaultPlan().link_down_oneway(("h", 0), ("s", 0),
                                                    1.0, 2.0)
        assert oneway.has_directed_faults and not oneway.has_outages
        lossy = FabricFaultPlan(drop_probability=0.1,
                                corrupt_probability=0.1, rng=rng)
        assert lossy.has_random_faults and not lossy.has_outages
        assert oneway.link_down(("h", 0), ("s", 0), 3.0, 4.0).has_outages
        assert lossy.node_down(("s", 2), 5.0, 6.0).has_outages


class TestTransferFaults:
    def make_fabric(self, sim, plan):
        return Fabric(sim, fat_tree(), get_interconnect("gigabit_ethernet"),
                      fault_plan=plan)

    def test_clean_plan_matches_plain_transfer(self):
        sim_a, sim_b = Simulator(), Simulator()
        plain = Fabric(sim_a, fat_tree(),
                       get_interconnect("gigabit_ethernet"))
        faulty = self.make_fabric(sim_b, FabricFaultPlan())
        out = {}

        def body(fabric, key, sim):
            out[key] = (yield from fabric.transfer_ex(0, 2, 4096)).end

        sim_a.process(body(plain, "plain", sim_a))
        sim_b.process(body(faulty, "faulty", sim_b))
        sim_a.run()
        sim_b.run()
        assert out["plain"] == pytest.approx(out["faulty"])

    def test_reroute_around_down_spine(self):
        sim = Simulator()
        topo = fat_tree()
        spine = topo.route(0, 2)[1][1]
        plan = FabricFaultPlan().node_down(spine, 0.0, 1.0)
        fabric = self.make_fabric(sim, plan)
        out = run_transfer(sim, fabric, 0, 2)
        assert out["outcome"].rerouted
        assert plan.reroutes == 1

    def test_unreachable_when_host_link_down(self):
        sim = Simulator()
        plan = FabricFaultPlan().link_down(("h", 0), ("s", 0), 0.0, 1.0)
        fabric = self.make_fabric(sim, plan)
        out = run_transfer(sim, fabric, 0, 2)
        assert isinstance(out["error"], NetworkUnreachable)
        assert plan.unreachable == 1

    def test_mid_flight_outage_drops_transfer(self):
        """A link that dies while the message is serializing onto the
        route loses the message (it departed before the outage)."""
        sim = Simulator()
        plan = FabricFaultPlan().link_down(("h", 0), ("s", 0),
                                           1e-3, 2e-3)
        fabric = self.make_fabric(sim, plan)
        # 1 MiB at ~1 Gb/s serializes for ~8 ms: in flight at t=1 ms.
        out = run_transfer(sim, fabric, 0, 2, nbytes=1 << 20)
        assert isinstance(out["error"], TransferDropped)
        assert plan.drops == 1

    def test_random_drop(self):
        sim = Simulator()
        plan = FabricFaultPlan(drop_probability=1.0,
                               rng=RandomStreams(0).get("net"))
        fabric = self.make_fabric(sim, plan)
        out = run_transfer(sim, fabric, 0, 2)
        assert isinstance(out["error"], TransferDropped)
        assert plan.drops == 1

    def test_random_corruption_flagged_not_raised(self):
        sim = Simulator()
        plan = FabricFaultPlan(corrupt_probability=1.0,
                               rng=RandomStreams(0).get("net"))
        fabric = self.make_fabric(sim, plan)
        out = run_transfer(sim, fabric, 0, 2)
        assert out["outcome"].corrupted
        assert plan.corruptions == 1

    def test_self_transfer_immune_to_fabric_faults(self):
        sim = Simulator()
        plan = FabricFaultPlan(drop_probability=1.0,
                               rng=RandomStreams(0).get("net"))
        fabric = self.make_fabric(sim, plan)
        out = run_transfer(sim, fabric, 1, 1)
        assert out["outcome"].hops == 0
        assert not out["outcome"].corrupted
