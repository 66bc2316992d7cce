"""Fleet evolution: rolling upgrades vs forklift replacement.

The keynote closes with "more bizarre possibilities driven by other
market and product trends"; the one that defined real machine rooms is
*continuous* procurement: commodity nodes are cheap enough to buy every
year, so a cluster becomes a rolling fleet of cohorts rather than a
monolith replaced wholesale.  This module models an operating budget
spent either way:

* **rolling** — every year, retire the cohort older than ``lifetime``
  years and spend the annual budget on current-year nodes;
* **forklift** — bank the budget, replace the entire machine every
  ``interval`` years with current-year nodes.

Outputs a year-by-year fleet timeline (peak, power, cohort count), from
which bench E17 extracts the trade: rolling buys a higher time-averaged
peak and never goes dark, at the price of a permanently heterogeneous
fleet — the scheduling/software complication the keynote's productivity
thread predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.cluster.cost import CostModel
from repro.nodes.base import NodeSpec
from repro.nodes.catalog import make_node
from repro.network.technologies import available_interconnects
from repro.tech.roadmap import TechnologyRoadmap

__all__ = ["Cohort", "FleetYear", "simulate_fleet", "time_averaged_peak"]


@dataclass(frozen=True)
class Cohort:
    """Nodes bought together in one year."""

    purchase_year: float
    node_count: int
    node: NodeSpec

    @property
    def peak_flops(self) -> float:
        """Aggregate peak FLOPS of the cohort's nodes."""
        return self.node_count * self.node.peak_flops

    @property
    def power_watts(self) -> float:
        """Aggregate power draw of the cohort's nodes."""
        return self.node_count * self.node.power_watts


@dataclass
class FleetYear:
    """The fleet's state at one year's end."""

    year: float
    cohorts: List[Cohort] = field(default_factory=list)
    spent_dollars: float = 0.0

    @property
    def peak_flops(self) -> float:
        """Fleet-wide peak FLOPS, summed over cohorts."""
        return sum(c.peak_flops for c in self.cohorts)

    @property
    def power_watts(self) -> float:
        """Fleet-wide power draw, summed over cohorts."""
        return sum(c.power_watts for c in self.cohorts)

    @property
    def node_count(self) -> int:
        """Fleet-wide node count, summed over cohorts."""
        return sum(c.node_count for c in self.cohorts)

    @property
    def cohort_count(self) -> int:
        """Hardware generations in service — the heterogeneity the
        system software must now manage."""
        return len(self.cohorts)


def _nodes_for_budget(budget: float, roadmap: TechnologyRoadmap,
                      year: float, architecture: str,
                      cost_model: CostModel) -> int:
    """Largest cohort the budget buys (node + network port + overheads),
    using the year's cheapest adequate interconnect for the port price."""
    technologies = available_interconnects(year)
    port = min(t.cost_per_port for t in technologies)
    node = make_node(architecture, roadmap, year)
    per_node = (node.cost_dollars + port) \
        * (1.0 + cost_model.integration_fraction)
    return max(0, int(budget // per_node))


def simulate_fleet(roadmap: TechnologyRoadmap,
                   start_year: float, end_year: float,
                   annual_budget: float,
                   strategy: str = "rolling",
                   architecture: str = "conventional",
                   lifetime_years: float = 4.0,
                   forklift_interval_years: float = 3.0,
                   cost_model: CostModel = CostModel()) -> List[FleetYear]:
    """Year-by-year fleet evolution under a procurement strategy.

    Returns one :class:`FleetYear` per calendar year in
    ``[start_year, end_year]``.  Retirement happens before purchase in a
    given year; the forklift strategy's banked budget earns no interest
    (constant-dollar accounting, consistent with the roadmap).
    """
    if annual_budget <= 0:
        raise ValueError("annual budget must be positive")
    if end_year <= start_year:
        raise ValueError("end year must follow start year")
    if strategy not in ("rolling", "forklift"):
        raise ValueError(
            f"unknown strategy {strategy!r}; choose 'rolling' or 'forklift'"
        )
    if lifetime_years <= 0 or forklift_interval_years <= 0:
        raise ValueError("lifetime and interval must be positive")

    timeline: List[FleetYear] = []
    cohorts: List[Cohort] = []
    banked = 0.0
    years_since_forklift = forklift_interval_years  # buy immediately

    year = start_year
    while year <= end_year + 1e-9:
        spent = 0.0
        if strategy == "rolling":
            cohorts = [c for c in cohorts
                       if year - c.purchase_year < lifetime_years - 1e-9]
            count = _nodes_for_budget(annual_budget, roadmap, year,
                                      architecture, cost_model)
            if count > 0:
                cohorts.append(Cohort(year, count,
                                      make_node(architecture, roadmap,
                                                year)))
                spent = annual_budget
        else:  # forklift
            banked += annual_budget
            years_since_forklift += 1.0
            if years_since_forklift >= forklift_interval_years:
                count = _nodes_for_budget(banked, roadmap, year,
                                          architecture, cost_model)
                if count > 0:
                    cohorts = [Cohort(year, count,
                                      make_node(architecture, roadmap,
                                                year))]
                    spent = banked
                    banked = 0.0
                    years_since_forklift = 0.0
        timeline.append(FleetYear(year=year, cohorts=list(cohorts),
                                  spent_dollars=spent))
        year += 1.0
    return timeline


def time_averaged_peak(timeline: List[FleetYear]) -> float:
    """Mean fleet peak over the span (the capability the users lived)."""
    if not timeline:
        raise ValueError("empty timeline")
    return float(np.mean([fy.peak_flops for fy in timeline]))
