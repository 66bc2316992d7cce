"""Cluster economics: purchase cost and TCO.

The founding premise of Beowulf-class computing — and the keynote's
baseline assumption — is that commodity clusters win on price/performance
against integrated (MPP/vector) systems.  This module prices the
commodity side: the purchase line items, the power bill, and the
headline $/FLOPS curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.packaging import Packaging
from repro.cluster.power import PowerModel
from repro.cluster.spec import ClusterSpec

__all__ = ["CostModel", "CostBreakdown"]


@dataclass(frozen=True)
class CostBreakdown:
    """Where the dollars go at purchase time."""

    nodes_dollars: float
    network_dollars: float
    racks_dollars: float
    integration_dollars: float

    @property
    def total_dollars(self) -> float:
        """Sum of every purchase line item."""
        return (self.nodes_dollars + self.network_dollars
                + self.racks_dollars + self.integration_dollars)


@dataclass(frozen=True)
class CostModel:
    """Pricing parameters."""

    #: Assembly/burn-in/installation as a fraction of hardware cost.
    integration_fraction: float = 0.10
    #: Electricity price, dollars per kWh (2002 US industrial average).
    dollars_per_kwh: float = 0.05

    def __post_init__(self) -> None:
        if self.integration_fraction < 0:
            raise ValueError("integration fraction must be non-negative")
        if self.dollars_per_kwh <= 0:
            raise ValueError("electricity price must be positive")

    def purchase(self, spec: ClusterSpec, packaging: Packaging) -> CostBreakdown:
        """Capital cost accounting."""
        nodes = spec.node.cost_dollars * spec.node_count
        network = spec.interconnect.cost_per_port * spec.node_count
        racks = packaging.rack_cost
        hardware = nodes + network + racks
        return CostBreakdown(
            nodes_dollars=nodes,
            network_dollars=network,
            racks_dollars=racks,
            integration_dollars=hardware * self.integration_fraction,
        )

    def annual_power_cost(self, spec: ClusterSpec, packaging: Packaging,
                          power_model: PowerModel = PowerModel()) -> float:
        """Dollars per year to feed and cool the machine."""
        joules = power_model.annual_energy_joules(spec, packaging)
        kwh = joules / 3.6e6
        return kwh * self.dollars_per_kwh

    def tco(self, spec: ClusterSpec, packaging: Packaging, years: float,
            power_model: PowerModel = PowerModel()) -> float:
        """Total cost of ownership: purchase + ``years`` of power.

        Staffing and floor-space rent are excluded (they dominate neither
        side of the commodity-vs-MPP comparison the model serves).
        """
        if years < 0:
            raise ValueError("years must be non-negative")
        return (self.purchase(spec, packaging).total_dollars
                + years * self.annual_power_cost(spec, packaging, power_model))

    def dollars_per_flops(self, spec: ClusterSpec,
                          packaging: Packaging) -> float:
        """Purchase price per peak FLOPS — the headline cost curve."""
        return self.purchase(spec, packaging).total_dollars / spec.peak_flops
