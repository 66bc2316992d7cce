"""Interconnect models.

The keynote names "anticipated advances in networking including Infiniband
and optical switching" as a defining force.  This package provides:

* :class:`LogGPParams` — the latency/overhead/gap/Gap cost model that
  captures what applications see of a network;
* a catalog of :class:`InterconnectTechnology` entries spanning the era,
  Fast Ethernet through InfiniBand 12X and optical circuit switching;
* topologies (single switch, two-level fat tree, torus, hypercube) built on
  a plain adjacency map, with deterministic routing;
* :class:`Fabric` — a contention-aware transport running inside the
  discrete-event simulator, used by the messaging layer.
"""

from repro.network.loggp import LogGPParams
from repro.network.technologies import (
    INTERCONNECTS,
    InterconnectTechnology,
    available_interconnects,
    get_interconnect,
)
from repro.network.topology import (
    FatTreeTopology,
    HypercubeTopology,
    SingleSwitchTopology,
    Topology,
    TorusTopology,
    canonical_link,
)
from repro.network.fabric import (
    DownWindow,
    Fabric,
    FabricFaultPlan,
    NetworkUnreachable,
    TransferDropped,
    TransferOutcome,
    TransferRecord,
)
from repro.network.fattree3 import ThreeLevelFatTreeTopology
from repro.network.design import FabricBill, compare_fabrics, price_fabric
from repro.network.loggp_fit import LogGPFit, fit_loggp

__all__ = [
    "DownWindow",
    "Fabric",
    "FabricBill",
    "FabricFaultPlan",
    "FatTreeTopology",
    "HypercubeTopology",
    "INTERCONNECTS",
    "InterconnectTechnology",
    "LogGPFit",
    "LogGPParams",
    "NetworkUnreachable",
    "SingleSwitchTopology",
    "ThreeLevelFatTreeTopology",
    "Topology",
    "TorusTopology",
    "TransferDropped",
    "TransferOutcome",
    "TransferRecord",
    "available_interconnects",
    "canonical_link",
    "compare_fabrics",
    "price_fabric",
    "fit_loggp",
    "get_interconnect",
]
