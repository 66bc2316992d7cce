"""Cluster spec, packaging, power, cost, metrics, designers."""

import pytest

from repro.cluster import (
    ClusterSpec,
    CostModel,
    PowerModel,
    RackConfig,
    cluster_metrics,
    design_cluster,
    design_to_budget,
    design_to_peak,
    pack_cluster,
)
from repro.network import get_interconnect
from repro.nodes import make_node


@pytest.fixture
def small_cluster(nominal):
    return design_cluster("test", nominal, 2005, 64, "conventional",
                          "infiniband_4x")


class TestClusterSpec:
    def test_aggregates(self, nominal):
        node = make_node("conventional", nominal, 2005)
        spec = ClusterSpec("c", node, 100, get_interconnect("gigabit_ethernet"),
                           2005)
        assert spec.peak_flops == pytest.approx(100 * node.peak_flops)
        assert spec.memory_bytes == pytest.approx(100 * node.memory_bytes)
        assert spec.total_cores == 100 * node.total_cores

    def test_interconnect_availability_enforced(self, nominal):
        node = make_node("conventional", nominal, 2002.75)
        with pytest.raises(ValueError, match="not available"):
            ClusterSpec("c", node, 10, get_interconnect("infiniband_12x"),
                        2002.75)

    def test_node_count_validated(self, nominal):
        node = make_node("conventional", nominal, 2005)
        with pytest.raises(ValueError):
            ClusterSpec("c", node, 0, get_interconnect("gigabit_ethernet"),
                        2005)


class TestPackaging:
    def test_packing_obeys_both_constraints(self, small_cluster):
        rack = RackConfig()
        packaging = pack_cluster(small_cluster, rack)
        by_space = int(rack.usable_units // small_cluster.node.rack_units)
        by_power = int(rack.power_limit_watts
                       // small_cluster.node.power_watts)
        assert packaging.nodes_per_rack == min(by_space, by_power)
        assert packaging.power_limited == (by_power < by_space)
        assert packaging.racks == -(-64 // packaging.nodes_per_rack)

    def test_generous_power_feed_makes_space_bind(self, small_cluster):
        rack = RackConfig(power_limit_watts=100_000)
        packaging = pack_cluster(small_cluster, rack)
        assert not packaging.power_limited
        assert packaging.nodes_per_rack == int(rack.usable_units)

    def test_power_limited_packing(self, nominal):
        """Dense blades hit the rack power feed before the rack height —
        the blade-era phenomenon."""
        spec = design_cluster("dense", nominal, 2006, 500, "blade",
                              "infiniband_4x")
        packaging = pack_cluster(spec, RackConfig(power_limit_watts=5_000))
        assert packaging.power_limited

    def test_floor_area_scales_with_racks(self, small_cluster):
        rack = RackConfig()
        packaging = pack_cluster(small_cluster, rack)
        assert packaging.floor_area_m2 == pytest.approx(
            packaging.racks * rack.floor_area_m2)

    def test_rack_validation(self):
        with pytest.raises(ValueError):
            RackConfig(total_units=4.0, overhead_units=5.0)


class TestPowerModel:
    def test_breakdown_sums(self, small_cluster):
        packaging = pack_cluster(small_cluster)
        breakdown = PowerModel(pue=2.0).breakdown(small_cluster, packaging)
        assert breakdown.total_watts == pytest.approx(
            breakdown.it_watts * 2.0)
        assert breakdown.nodes_watts == pytest.approx(
            small_cluster.node.power_watts * 64)

    def test_pue_one_means_no_cooling(self, small_cluster):
        packaging = pack_cluster(small_cluster)
        breakdown = PowerModel(pue=1.0).breakdown(small_cluster, packaging)
        assert breakdown.cooling_watts == 0.0

    def test_pue_validated(self):
        with pytest.raises(ValueError):
            PowerModel(pue=0.5)

    def test_annual_energy(self, small_cluster):
        packaging = pack_cluster(small_cluster)
        model = PowerModel()
        joules = model.annual_energy_joules(small_cluster, packaging)
        watts = model.breakdown(small_cluster, packaging).total_watts
        assert joules == pytest.approx(watts * 365.25 * 86400)


class TestCostModel:
    def test_purchase_breakdown(self, small_cluster):
        packaging = pack_cluster(small_cluster)
        cost = CostModel(integration_fraction=0.1).purchase(
            small_cluster, packaging)
        hardware = (cost.nodes_dollars + cost.network_dollars
                    + cost.racks_dollars)
        assert cost.integration_dollars == pytest.approx(0.1 * hardware)
        assert cost.total_dollars == pytest.approx(hardware * 1.1)

    def test_tco_grows_with_years(self, small_cluster):
        packaging = pack_cluster(small_cluster)
        model = CostModel()
        assert (model.tco(small_cluster, packaging, 3.0)
                > model.tco(small_cluster, packaging, 1.0)
                > model.tco(small_cluster, packaging, 0.0))

    def test_validation(self, small_cluster):
        with pytest.raises(ValueError):
            CostModel(dollars_per_kwh=0.0)
        packaging = pack_cluster(small_cluster)
        with pytest.raises(ValueError):
            CostModel().tco(small_cluster, packaging, -1.0)


class TestDesigners:
    def test_budget_designer_respects_budget(self, nominal):
        budget = 2e6
        spec = design_to_budget(budget, nominal, 2005)
        metrics = cluster_metrics(spec)
        assert metrics.purchase_dollars <= budget
        # Adding one node would bust the budget.
        bigger = design_cluster("x", nominal, 2005, spec.node_count + 1,
                                interconnect=spec.interconnect)
        assert cluster_metrics(bigger).purchase_dollars > budget

    def test_budget_too_small_raises(self, nominal):
        with pytest.raises(ValueError, match="budget"):
            design_to_budget(100.0, nominal, 2005)

    def test_peak_designer_minimal(self, nominal):
        spec = design_to_peak(1e13, nominal, 2005, "conventional",
                              "infiniband_4x")
        assert spec.peak_flops >= 1e13
        assert (spec.node_count - 1) * spec.node.peak_flops < 1e13

    def test_default_interconnect_is_best_available(self, nominal):
        spec_2002 = design_cluster("a", nominal, 2002.9, 16)
        spec_2006 = design_cluster("b", nominal, 2006, 16)
        assert spec_2002.interconnect.name == "quadrics_elan3"
        assert spec_2006.interconnect.name == "infiniband_12x"

    def test_more_budget_more_nodes(self, nominal):
        small = design_to_budget(1e6, nominal, 2005)
        large = design_to_budget(1e7, nominal, 2005)
        assert large.node_count > 5 * small.node_count


class TestMetrics:
    def test_metrics_consistency(self, small_cluster):
        metrics = cluster_metrics(small_cluster)
        assert metrics.dollars_per_flops == pytest.approx(
            metrics.purchase_dollars / metrics.peak_flops)
        assert metrics.watts_per_flops == pytest.approx(
            metrics.total_watts / metrics.peak_flops)
        assert metrics.gflops_per_kw == pytest.approx(
            (metrics.peak_flops / 1e9) / (metrics.total_watts / 1e3))

    def test_blade_density_beats_conventional(self, nominal):
        blade = cluster_metrics(design_cluster(
            "b", nominal, 2006, 512, "blade", "infiniband_4x"))
        conventional = cluster_metrics(design_cluster(
            "c", nominal, 2006, 512, "conventional", "infiniband_4x"))
        assert blade.flops_per_m2 > conventional.flops_per_m2
        assert blade.packaging.racks < conventional.packaging.racks
