"""clusterlaunch — a commodity-cluster futures laboratory.

Reproduction of T. Sterling, *"Launching into the future of commodity
cluster computing"* (IEEE CLUSTER 2002 plenary keynote).  The keynote is a
vision talk published in summary form; this library turns each of its
quantitative claims into models, simulators, and regenerable experiments:

* :mod:`repro.tech` — the "performance, capacity, power, size, and cost
  curves" as calibrated projections with scenarios;
* :mod:`repro.nodes` — the "revolutionary structures embodied by the
  nodes": blades, SMP/system-on-chip, processor-in-memory, on a roofline
  model;
* :mod:`repro.network` — "Infiniband and optical switching": LogGP
  technology catalog, single-switch and fat-tree topologies, a
  contention-aware simulated fabric;
* :mod:`repro.messaging` — an MPI-flavoured layer in virtual time;
* :mod:`repro.apps` — stencil / CG / FFT / SUMMA kernels plus an HPL
  model for Top500-style projection;
* :mod:`repro.cluster` — whole-machine assembly: packaging, power, cost;
* :mod:`repro.scheduler` — "resource management": batch policies with
  EASY/conservative backfilling on synthetic workloads;
* :mod:`repro.fault` — "fault recovery" as scale explodes: failure laws,
  Young/Daly checkpointing, Monte-Carlo validation;
* :mod:`repro.sim` — the discrete-event kernel under everything;
* :mod:`repro.analysis` — tables/series/statistics for the benchmarks.

Quick start::

    from repro import run_spmd, SUM

    def hello(comm):
        total = yield from comm.allreduce(comm.rank, SUM)
        return total

    result = run_spmd(16, hello, technology="infiniband_4x")
    print(result.results[0], f"{result.elapsed * 1e6:.1f} virtual us")

See ``examples/`` for full scenarios and ``benchmarks/`` for the
experiment suite (``DESIGN.md`` maps experiments to modules).
"""

from repro.units import (
    format_bytes,
    format_dollars,
    format_flops,
    format_power,
    format_time,
    parse_bytes,
    parse_flops,
    parse_time,
)
from repro.sim import RandomStreams, Simulator
from repro.tech import SCENARIOS, TechnologyRoadmap, get_scenario, nominal_roadmap
from repro.nodes import NodeSpec, RooflineModel, make_node, node_family
from repro.network import (
    Fabric,
    FatTreeTopology,
    INTERCONNECTS,
    SingleSwitchTopology,
    get_interconnect,
)
from repro.messaging import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    MAX,
    MIN,
    PROD,
    SUM,
    run_spmd,
)
from repro.cluster import (
    ClusterSpec,
    cluster_metrics,
    design_cluster,
    design_to_budget,
    design_to_peak,
)
from repro.scheduler import (
    BatchSimulator,
    WorkloadGenerator,
    WorkloadParams,
    evaluate_schedule,
    get_policy,
)
from repro.fault import (
    CheckpointParams,
    ExponentialFailures,
    daly_interval,
    efficiency,
    simulate_checkpoint_run,
    system_mtbf,
    young_interval,
)
from repro.apps import (
    HplModel,
    run_cg,
    run_fft2d,
    run_stencil,
)

__version__ = "1.0.0"

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BatchSimulator",
    "CheckpointParams",
    "ClusterSpec",
    "Communicator",
    "ExponentialFailures",
    "Fabric",
    "FatTreeTopology",
    "HplModel",
    "INTERCONNECTS",
    "MAX",
    "MIN",
    "NodeSpec",
    "PROD",
    "RandomStreams",
    "RooflineModel",
    "SCENARIOS",
    "SUM",
    "Simulator",
    "SingleSwitchTopology",
    "TechnologyRoadmap",
    "WorkloadGenerator",
    "WorkloadParams",
    "__version__",
    "cluster_metrics",
    "daly_interval",
    "design_cluster",
    "design_to_budget",
    "design_to_peak",
    "efficiency",
    "evaluate_schedule",
    "format_bytes",
    "format_dollars",
    "format_flops",
    "format_power",
    "format_time",
    "get_interconnect",
    "get_policy",
    "get_scenario",
    "make_node",
    "node_family",
    "nominal_roadmap",
    "parse_bytes",
    "parse_flops",
    "parse_time",
    "run_cg",
    "run_fft2d",
    "run_spmd",
    "run_stencil",
    "simulate_checkpoint_run",
    "system_mtbf",
    "young_interval",
]
