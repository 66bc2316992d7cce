"""Cluster assembly: from node + interconnect specs to a whole machine.

Turns the per-node and per-port models into system-level answers — peak
FLOPS, racks and floor space, kilowatts and cooling, dollars and TCO —
the units in which the keynote's "performance, capacity, power, size, and
cost curves" are actually denominated.

Public surface
--------------
:class:`ClusterSpec`
    The machine description (nodes × node spec × network × packaging).
:func:`design_cluster` / :func:`design_to_budget` / :func:`design_to_peak`
    Designers that size a machine for a year, budget, or performance goal.
:class:`RackConfig`, :func:`pack_cluster`
    Physical packaging (racks, floor space).
:class:`PowerModel`, :class:`CostModel`
    Operating draw (with PUE) and purchase + TCO economics.
:func:`cluster_metrics`
    One-call summary of every figure of merit.
"""

from repro.cluster.spec import ClusterSpec
from repro.cluster.packaging import RackConfig, Packaging, pack_cluster
from repro.cluster.power import PowerBreakdown, PowerModel
from repro.cluster.cost import CostBreakdown, CostModel
from repro.cluster.metrics import ClusterMetrics, cluster_metrics
from repro.cluster.builder import design_cluster, design_to_budget, design_to_peak
from repro.cluster.upgrade import Cohort, FleetYear, simulate_fleet, time_averaged_peak

__all__ = [
    "ClusterMetrics",
    "Cohort",
    "FleetYear",
    "ClusterSpec",
    "CostBreakdown",
    "CostModel",
    "Packaging",
    "PowerBreakdown",
    "PowerModel",
    "RackConfig",
    "cluster_metrics",
    "design_cluster",
    "design_to_budget",
    "design_to_peak",
    "pack_cluster",
    "simulate_fleet",
    "time_averaged_peak",
]
