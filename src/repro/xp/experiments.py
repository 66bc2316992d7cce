"""Registered experiments: the E20–E23 sweeps, the perf probe, and the
registry that adds the paper-claim experiments of
:mod:`repro.xp.analytic`.

E20–E23 mirror the shapes in ``benchmarks/bench_e20_fault_campaigns.py``,
``bench_e21_detection_tradeoff.py``, ``bench_e22_jobs_service.py`` and
``bench_e23_gossip.py``, repackaged as pure ``run(config, seed) ->
summary`` functions the fleet runner can cache and shard.  Those bench
modules keep their pytest gates and CI artifacts at 10^4 nodes; the
fleet versions exist to make *routine* re-measurement cheap — a warm
``python -m repro fleet`` touches only experiments whose code or config
changed.

Two deliberate differences from the benches:

* seeds come from the orchestrator (:func:`repro.xp.spec.point_seed`),
  not hard-coded constants, so every point has an independent
  reproducible stream;
* summaries carry only JSON-able scalars (NaNs mapped to ``None``), so
  canonical-JSON byte identity is a meaningful cache contract.

``code_roots`` name the modules each experiment *drives*; the cache
invalidates a sweep exactly when a file in that closure, or this module
(which defines their run functions), changes.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.units import KILO, MEGA
from repro.xp.analytic import ANALYTIC_EXPERIMENTS
from repro.xp.spec import ExperimentSpec, PointSpec

__all__ = [
    "EXPERIMENTS",
    "e20_run",
    "e21_run",
    "e22_run",
    "e23_run",
    "get_experiments",
    "perf_engine_run",
]

#: E20/E21 share the stencil kernel size and fault plumbing constants.
_STENCIL_ARGS = (("n", 12), ("iterations", 6))
_HEARTBEAT = 1e-4


def _nan_safe(value: float) -> Any:
    """JSON has no NaN: map it to ``None`` for canonical summaries."""
    return None if math.isnan(value) else value


def e20_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E20 point: goodput of one fault campaign under one recovery mode.

    ``config`` carries the scheduled fault count and the checkpoint
    cadence (``1`` = coordinated checkpoints, huge = scratch restart).
    """
    import repro.apps.campaigns  # noqa: F401  (registers the kernels)
    from repro.fault import CampaignSpec, NodeFaultSpec, run_campaign

    faults = int(config["faults"])
    checkpoint_every = int(config["checkpoint_every"])
    times = (6e-4, 1.2e-3, 1.8e-3)
    ranks = (1, 3, 0)
    spec = CampaignSpec(
        kernel="stencil2d", ranks=4,
        name=f"xp-e20-{faults}f-ck{checkpoint_every}",
        app_args=_STENCIL_ARGS,
        node_faults=tuple(NodeFaultSpec(time=times[i], rank=ranks[i])
                          for i in range(faults)),
        checkpoint_every=checkpoint_every,
        checkpoint_write_seconds=1e-4,
        restart_seconds=2e-4,
        seed=seed,
    )
    outcome = run_campaign(spec)
    return {
        "goodput": outcome.goodput,
        "restarts": outcome.faulty.incarnations - 1,
        "commits": outcome.faulty.commits,
        "retransmits": outcome.retries,
        "lost_work_ms": outcome.faulty.lost_work_seconds * KILO,
        "bit_identical": bool(outcome.answers_match),
    }


def e21_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E21 point: one detector configuration against partition + crash."""
    import repro.apps.campaigns  # noqa: F401  (registers the kernels)
    from repro.fault import (
        CampaignSpec,
        LinkFaultSpec,
        NodeFaultSpec,
        run_campaign,
    )
    from repro.health import DetectionSpec

    if config["detector"] == "fixed":
        multiplier = int(config["multiplier"])
        detection = DetectionSpec(
            detector="fixed", heartbeat_interval=_HEARTBEAT,
            suspect_after=multiplier * _HEARTBEAT / 2.0,
            dead_after=multiplier * _HEARTBEAT)
        label = f"fixed-x{multiplier}"
    else:
        detection = DetectionSpec(detector="phi",
                                  heartbeat_interval=_HEARTBEAT)
        label = "phi"
    spec = CampaignSpec(
        kernel="stencil2d", ranks=4, name=f"xp-e21-{label}",
        app_args=_STENCIL_ARGS,
        node_faults=(NodeFaultSpec(time=2.5e-3, rank=2),),
        link_faults=(LinkFaultSpec(start=6e-4, duration=1e-3,
                                   a=("h", 1), b=("s", 0)),),
        checkpoint_write_seconds=1e-4,
        restart_seconds=2e-4,
        seed=seed,
        detection=detection,
    )
    outcome = run_campaign(spec)
    detected = outcome.faulty.detection
    return {
        "deaths": len(detected.detections),
        "false_deaths": detected.false_deaths,
        "mttd_ms": _nan_safe(detected.mttd_seconds * KILO),
        "lost_work_ms": outcome.faulty.lost_work_seconds * KILO,
        "availability": detected.availability,
        "goodput": outcome.goodput,
        "bit_identical": bool(outcome.answers_match),
    }


def e22_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E22 point: the jobs control plane under an SWF trace + faults.

    The trace is generated from the derived seed, round-tripped through
    Standard Workload Format, and scaled to the service's millisecond
    clock — the same pipeline as the bench, minus its fixed seed.
    """
    import numpy as np

    from repro.health import DetectionSpec
    from repro.jobs import (
        DuplicateSubmitSpec,
        JobsCampaignSpec,
        ServiceConfig,
        SupervisorCrashSpec,
        WorkerCrashSpec,
        WorkerStallSpec,
        requests_from_jobs,
        run_jobs_campaign,
    )
    from repro.scheduler import (
        WorkloadGenerator,
        WorkloadParams,
        format_swf,
        parse_swf,
        scale_jobs,
    )
    from repro.sim.rng import RandomStreams

    trace_jobs = int(config["trace_jobs"])
    crash_count = int(config["crashes"])
    params = WorkloadParams(max_nodes=16, offered_load=2.0,
                            runtime_log_mean=float(np.log(2.0)),
                            runtime_log_sigma=0.6,
                            overestimate_max=2.0)
    generator = WorkloadGenerator(params, RandomStreams(seed=seed))
    trace = scale_jobs(
        parse_swf(format_swf(generator.generate(trace_jobs),
                             max_nodes=16)), 1e-3)
    crashes = (WorkerCrashSpec(time=2e-3, host=2),
               WorkerCrashSpec(time=6e-3, host=4))[:crash_count]
    spec = JobsCampaignSpec(
        requests=requests_from_jobs(tuple(trace)),
        name=f"xp-e22-{crash_count}crash",
        service=ServiceConfig(
            workers=4, spare_workers=2,
            detection=DetectionSpec(detector="fixed",
                                    heartbeat_interval=_HEARTBEAT,
                                    suspect_after=3e-4, dead_after=6e-4,
                                    monitor_host=0)),
        worker_crashes=crashes,
        worker_stalls=(WorkerStallSpec(time=3e-3, host=1,
                                       duration=4e-3),),
        supervisor_crashes=(SupervisorCrashSpec(time=4.5e-3,
                                                restart_after=1.5e-3),),
        duplicate_submits=(DuplicateSubmitSpec(time=2.5e-3, index=2),
                           DuplicateSubmitSpec(time=5e-3, index=7)),
        drop_probability=0.02,
        seed=seed,
    )
    outcome = run_jobs_campaign(spec)
    return {
        "completed": outcome.completed,
        "goodput": outcome.goodput,
        "violations": len(outcome.violations),
        "dedup_hits": outcome.dedup_hits,
        "expiries": outcome.expiries,
        "requeues": outcome.requeues,
        "fencing_rejections": outcome.fencing_rejections,
        "supervisor_restarts": outcome.supervisor_restarts,
        "deaths_declared": outcome.deaths_declared,
        "spare_activations": outcome.spare_activations,
    }


def e23_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E23 point: one detector against a crash on a small fat tree.

    The fleet version runs the head-to-head at a few hundred nodes so a
    cold point costs seconds, not minutes; the 10^4-node scorecard stays
    in ``benchmarks/bench_e23_gossip.py``.  Gossip needs a protocol
    period that dwarfs the fabric RTT, so both detectors run at the
    same 10 ms period for a fair MTTD comparison.
    """
    from repro.health import DetectionSpec, GossipMonitor, build_monitor
    from repro.network import Fabric, FatTreeTopology, get_interconnect
    from repro.sim import RandomStreams, Simulator

    detector = str(config["detector"])
    nodes = int(config["nodes"])
    interval = 1e-2
    sim = Simulator()
    fabric = Fabric(sim, FatTreeTopology(nodes),
                    get_interconnect("infiniband_4x"))
    monitor = build_monitor(
        sim, fabric, nodes,
        spec=DetectionSpec(detector=detector,
                           heartbeat_interval=interval,
                           suspect_after=3 * interval,
                           dead_after=6 * interval),
        streams=RandomStreams(seed=seed))
    monitor.start()
    sim.run(until=5 * interval)
    crashed = nodes // 2
    monitor.crash(crashed)
    sim.run(until=20 * interval)
    intervals = sim.now / interval
    summary = {
        "detected": sorted(d.node for d in monitor.deaths
                           if not d.false_positive),
        "false_deaths": sum(1 for d in monitor.deaths
                            if d.false_positive),
        "false_suspicions": monitor.false_suspicions,
        "mttd_ms": _nan_safe(monitor.mttd_seconds() * KILO),
        "messages_sent": monitor.heartbeats_sent,
        "messages_lost": monitor.heartbeats_lost,
    }
    if isinstance(monitor, GossipMonitor):
        stats = monitor.gossip_stats()
        summary["suspicions"] = stats.suspicions
        summary["refutations"] = stats.refutations
        summary["max_node_bytes_per_interval"] = (
            stats.max_node_bytes_sent / intervals)
    return summary


def perf_engine_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Engine throughput probe: drain a same-instant timeout batch.

    A coarse fleet-level tracking number, not a replacement for the
    paired pytest-benchmark gates in ``bench_perf_engine.py``.  Timing
    varies run to run, so the experiment registers as
    ``deterministic=False``: cached like everything else, but excluded
    from divergence verdicts.
    """
    from repro.sim import Simulator

    events = int(config["events"])
    sim = Simulator(queue=str(config["queue"]))
    for _ in range(events):
        sim.timeout(0.0)
    started = time.perf_counter()  # repro: noqa[REP002] host-side throughput measurement, not model time
    sim.run()
    elapsed = time.perf_counter() - started  # repro: noqa[REP002] see above
    return {
        "events": events,
        "seconds": elapsed,
        "events_per_second": events / elapsed if elapsed > 0 else 0.0,
    }


def _e20_points() -> Tuple[PointSpec, ...]:
    points: List[PointSpec] = []
    for faults in (0, 1, 2, 3):
        for mode, every in (("ckpt", 1), ("scratch", int(MEGA))):
            points.append(PointSpec(
                name=f"f{faults}-{mode}",
                config={"faults": faults, "checkpoint_every": every}))
    return tuple(points)


def _e21_points() -> Tuple[PointSpec, ...]:
    points = [PointSpec(name=f"fixed-x{m}",
                        config={"detector": "fixed", "multiplier": m})
              for m in (2, 4, 8, 16)]
    points.append(PointSpec(name="phi", config={"detector": "phi"}))
    return tuple(points)


def _e22_points() -> Tuple[PointSpec, ...]:
    return tuple(PointSpec(name=f"crash{n}",
                           config={"crashes": n, "trace_jobs": 24})
                 for n in (0, 1, 2))


def _e23_points() -> Tuple[PointSpec, ...]:
    return tuple(PointSpec(name=f"{detector}-n{nodes}",
                           config={"detector": detector, "nodes": nodes})
                 for detector in ("fixed", "gossip")
                 for nodes in (64, 256))


def _perf_points() -> Tuple[PointSpec, ...]:
    return tuple(PointSpec(name=f"storm-{queue}",
                           config={"queue": queue, "events": 20_000})
                 for queue in ("heap", "wheel"))


#: The registered fleet, in index order.
EXPERIMENTS: Tuple[ExperimentSpec, ...] = (
    *ANALYTIC_EXPERIMENTS,
    ExperimentSpec(
        name="e20_fault_campaigns",
        run=e20_run,
        points=_e20_points(),
        code_roots=("repro/fault/campaign.py", "repro/apps/campaigns.py"),
        description="goodput vs fault count per recovery mode "
                    "(2D stencil, 4 ranks)",
    ),
    ExperimentSpec(
        name="e21_detection_tradeoff",
        run=e21_run,
        points=_e21_points(),
        code_roots=("repro/fault/campaign.py", "repro/health/__init__.py",
                    "repro/apps/campaigns.py"),
        description="failure-detector timeout vs MTTD and false "
                    "positives",
    ),
    ExperimentSpec(
        name="e22_jobs_service",
        run=e22_run,
        points=_e22_points(),
        code_roots=("repro/jobs/__init__.py",
                    "repro/scheduler/__init__.py"),
        description="lease-based control plane goodput vs crash count "
                    "on an SWF trace",
    ),
    ExperimentSpec(
        name="e23_gossip_membership",
        run=e23_run,
        points=_e23_points(),
        code_roots=("repro/health/gossip.py", "repro/health/monitor.py"),
        description="SWIM gossip vs central heartbeat detection on a "
                    "crash (small-scale; 10^4 scorecard in the bench)",
    ),
    ExperimentSpec(
        name="perf_engine",
        run=perf_engine_run,
        points=_perf_points(),
        code_roots=("repro/sim/engine.py", "repro/sim/equeue.py"),
        deterministic=False,
        description="engine drain throughput probe (timing; excluded "
                    "from divergence checks)",
    ),
)


def get_experiments(
        names: Sequence[str] = ()) -> Tuple[ExperimentSpec, ...]:
    """Resolve experiment names to specs; empty selection means all.

    Unknown names raise :class:`ValueError` listing the registry, so the
    CLI can exit 2 with a useful message.
    """
    if not names:
        return EXPERIMENTS
    by_name = {spec.name: spec for spec in EXPERIMENTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        known = ", ".join(spec.name for spec in EXPERIMENTS)
        raise ValueError(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(registered: {known})")
    return tuple(by_name[name] for name in names)
