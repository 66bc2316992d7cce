"""Fault tolerance at exploding scale.

"As system scale explodes even for moderate cost systems, the software
tools to manage them will take on new responsibilities" — fault recovery
is the keynote's canonical example.  This package quantifies the claim:

* :mod:`~repro.fault.models` — per-node failure laws (exponential,
  Weibull) and the system-level MTBF collapse as node count grows;
* :mod:`~repro.fault.checkpoint` — checkpoint/restart economics: Young's
  and Daly's optimal intervals, analytic expected runtime and efficiency;
* :mod:`~repro.fault.injection` — a failure injector for the event
  kernel, plus a Monte-Carlo checkpoint/restart simulator that validates
  the analytic model;
* :mod:`~repro.fault.availability` — per-node availability from MTBF and
  MTTR, and the spare pool that only a declared death can drain;
* :mod:`~repro.fault.campaign` — declarative end-to-end fault campaigns:
  a real app kernel under scheduled node/link faults with coordinated
  checkpoint/restart, verified bit-identical to the failure-free run.
"""

from repro.fault.models import (
    ExponentialFailures,
    FailureModel,
    WeibullFailures,
    system_mtbf,
)
from repro.fault.checkpoint import (
    CheckpointParams,
    daly_interval,
    expected_runtime,
    efficiency,
    waste_fraction,
    young_interval,
)
from repro.fault.injection import FaultInjector, simulate_checkpoint_run
from repro.fault.campaign import (
    CampaignReport,
    CampaignSpec,
    CheckpointVault,
    LinkFaultSpec,
    NodeFaultSpec,
    RankCheckpoint,
    RunOutcome,
    available_kernels,
    build_fault_plan,
    get_kernel,
    register_kernel,
    run_campaign,
    run_workload,
)
from repro.fault.availability import (
    DetectorDrivenSparePool,
    NodeAvailability,
    expected_up_nodes,
    node_availability,
)

__all__ = [
    "CampaignReport",
    "CampaignSpec",
    "CheckpointParams",
    "CheckpointVault",
    "DetectorDrivenSparePool",
    "ExponentialFailures",
    "FailureModel",
    "FaultInjector",
    "LinkFaultSpec",
    "NodeAvailability",
    "NodeFaultSpec",
    "RankCheckpoint",
    "RunOutcome",
    "WeibullFailures",
    "available_kernels",
    "build_fault_plan",
    "daly_interval",
    "efficiency",
    "expected_up_nodes",
    "node_availability",
    "expected_runtime",
    "get_kernel",
    "register_kernel",
    "run_campaign",
    "run_workload",
    "simulate_checkpoint_run",
    "system_mtbf",
    "waste_fraction",
    "young_interval",
]
