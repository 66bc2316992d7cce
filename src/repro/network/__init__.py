"""Interconnect models.

The keynote names "anticipated advances in networking including Infiniband
and optical switching" as a defining force.  This package provides:

* :class:`LogGPParams` — the latency/overhead/gap/Gap cost model that
  captures what applications see of a network;
* a catalog of :class:`InterconnectTechnology` entries spanning the era,
  Fast Ethernet through InfiniBand 12X and optical circuit switching;
* topologies (single switch, two- and three-level fat trees) built on a
  plain adjacency map, with deterministic routing;
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
    SingleSwitchTopology,
    Topology,
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

__all__ = [
    "DownWindow",
    "Fabric",
    "FabricBill",
    "FabricFaultPlan",
    "FatTreeTopology",
    "INTERCONNECTS",
    "InterconnectTechnology",
    "LogGPParams",
    "NetworkUnreachable",
    "SingleSwitchTopology",
    "ThreeLevelFatTreeTopology",
    "Topology",
    "TransferDropped",
    "TransferOutcome",
    "TransferRecord",
    "available_interconnects",
    "canonical_link",
    "compare_fabrics",
    "price_fabric",
    "get_interconnect",
]
