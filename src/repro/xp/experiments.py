"""The fault-recovery experiments E20–E23 with their paper claims, and
the registry that adds the experiments of :mod:`repro.xp.analytic`.

E20–E23 are the evidence for paper claim 5 (fault recovery and
resource management "take on new responsibilities" as "system scale
explodes"): fault campaigns on a real kernel, the failure-detector
timeout trade-off, the lease-based jobs control plane, and SWIM gossip
against the central monitor at 10^4 nodes.  They follow the
conventions of :mod:`repro.xp.analytic`: one size, the one the claims
were made at; summaries hold the raw values the claims compare (NaNs
mapped to ``None``, since JSON has none); and the seeds are pinned in
each run function, each with a comment on why that one.

``code_roots`` name the modules each experiment *drives*; the cache
invalidates an experiment exactly when a file in that closure, or this
module (which defines their run functions and claims), changes.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.units import MEGA
from repro.xp.analytic import ANALYTIC_EXPERIMENTS
from repro.xp.spec import Claim, ExperimentSpec, PointSpec

__all__ = [
    "EXPERIMENTS",
    "e20_run",
    "e21_run",
    "e22_run",
    "e23_run",
    "get_experiments",
]

#: ``{point: summary}``, what every claim predicate receives.
Points = Mapping[str, Mapping[str, Any]]

#: E20/E21 share the stencil kernel size and recovery costs.
_STENCIL_ARGS = (("n", 12), ("iterations", 6))
_CHECKPOINT_WRITE_SECONDS = 1e-4
_RESTART_SECONDS = 2e-4
#: E20/E21 campaign seed (retry jitter): the claims were made at this
#: one, and they also hold at seeds 1-10, 1007, 2007 and 3007 (ROADMAP
#: item 3, seed ensembles).
_CAMPAIGN_SEED = 7


def _nan_safe(value: float) -> Any:
    """JSON has no NaN: map it to ``None`` for canonical summaries."""
    return None if math.isnan(value) else value


def _approx(value: float, expected: float) -> bool:
    """``pytest.approx``'s default tolerance, as :func:`math.isclose`."""
    return math.isclose(value, expected, rel_tol=1e-6, abs_tol=1e-12)


def _non_increasing(values: Sequence[Any]) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


# -- E20: fault campaigns ----------------------------------------------------

#: Node faults (time, rank) in firing order; ``faults=k`` takes the
#: first k.
_E20_NODE_FAULTS = ((6e-4, 1), (1.2e-3, 3), (1.8e-3, 0))
_E20_FAULT_COUNTS = (0, 1, 2, 3)
#: Recovery mode -> checkpoint cadence: every iteration, or never (a
#: restart recomputes from iteration zero).
_E20_MODES = (("ckpt", 1), ("scratch", int(MEGA)))


def e20_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E20 point: a 4-rank 2D stencil campaign under k scheduled node
    faults, recovered by one restart mode."""
    import repro.apps.campaigns  # noqa: F401  (registers the kernels)
    from repro.fault import CampaignSpec, NodeFaultSpec, run_campaign

    faults = int(config["faults"])
    every = int(config["checkpoint_every"])
    outcome = run_campaign(CampaignSpec(
        kernel="stencil2d", ranks=4, name=f"e20-{faults}f-ck{every}",
        app_args=_STENCIL_ARGS,
        node_faults=tuple(NodeFaultSpec(time=time, rank=rank)
                          for time, rank in _E20_NODE_FAULTS[:faults]),
        checkpoint_every=every,
        checkpoint_write_seconds=_CHECKPOINT_WRITE_SECONDS,
        restart_seconds=_RESTART_SECONDS,
        seed=_CAMPAIGN_SEED,
    ))
    return {
        "goodput": outcome.goodput,
        "lost_work_seconds": outcome.faulty.lost_work_seconds,
        "restarts": outcome.faulty.incarnations - 1,
        "commits": outcome.faulty.commits,
        "retransmits": outcome.retries,
        "bit_identical": bool(outcome.answers_match),
    }


def _e20_goodput(p: Points, mode: str) -> List[float]:
    return [p[f"f{faults}-{mode}"]["goodput"]
            for faults in _E20_FAULT_COUNTS]


_E20 = ExperimentSpec(
    name="e20_fault_campaigns", run=e20_run,
    points=tuple(PointSpec(name=f"f{faults}-{mode}",
                           config={"faults": faults,
                                   "checkpoint_every": every})
                 for faults in _E20_FAULT_COUNTS
                 for mode, every in _E20_MODES),
    code_roots=("repro/fault/campaign.py", "repro/apps/campaigns.py"),
    description="goodput vs node-fault count per restart mode "
                "(2D stencil, 4 ranks)",
    claims=(
        Claim("every_campaign_recovers_bit_identically", 5, lambda p: all(
            s["bit_identical"] for s in p.values())),
        Claim("no_faults_cost_nothing", 5, lambda p: all(
            _approx(_e20_goodput(p, mode)[0], 1.0)
            for mode, _every in _E20_MODES)),
        Claim("goodput_decays_with_fault_count", 5, lambda p: all(
            _non_increasing(_e20_goodput(p, mode))
            for mode, _every in _E20_MODES)),
        Claim("checkpoint_beats_scratch_at_3_faults", 5, lambda p: (
            p["f3-ckpt"]["goodput"] > p["f3-scratch"]["goodput"])),
        Claim("checkpoint_loses_less_work_at_3_faults", 5, lambda p: (
            p["f3-ckpt"]["lost_work_seconds"]
            < p["f3-scratch"]["lost_work_seconds"])),
    ),
)


# -- E21: failure-detector timeout trade-off ---------------------------------

_E21_HEARTBEAT = 1e-4
#: Dead-declaration timeouts, in heartbeat intervals.
_E21_MULTIPLIERS = (2, 4, 8, 16)


def e21_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E21 point: the stencil campaign with a 1 ms partition of host 1
    and a later real crash of rank 2, recovered on one detector's
    verdicts."""
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
            detector="fixed", heartbeat_interval=_E21_HEARTBEAT,
            suspect_after=multiplier * _E21_HEARTBEAT / 2.0,
            dead_after=multiplier * _E21_HEARTBEAT)
        name = f"e21-fixed-{multiplier}"
    else:
        detection = DetectionSpec(detector="phi",
                                  heartbeat_interval=_E21_HEARTBEAT)
        name = "e21-phi"
    outcome = run_campaign(CampaignSpec(
        kernel="stencil2d", ranks=4, name=name, app_args=_STENCIL_ARGS,
        node_faults=(NodeFaultSpec(time=2.5e-3, rank=2),),
        # Longer than every tight timeout's patience, shorter than the
        # loosest: tight detectors falsely declare node 1 dead.
        link_faults=(LinkFaultSpec(start=6e-4, duration=1e-3,
                                   a=("h", 1), b=("s", 0)),),
        checkpoint_write_seconds=_CHECKPOINT_WRITE_SECONDS,
        restart_seconds=_RESTART_SECONDS,
        seed=_CAMPAIGN_SEED,
        detection=detection,
    ))
    report = outcome.faulty.detection
    summary: Dict[str, Any] = {
        "bit_identical": bool(outcome.answers_match),
        "detector_ran": report is not None,
        "restarts": outcome.faulty.incarnations - 1,
        "lost_work_seconds": outcome.faulty.lost_work_seconds,
        "goodput": outcome.goodput,
    }
    if report is not None:
        summary.update(
            deaths=len(report.detections),
            false_deaths=report.false_deaths,
            mttd_seconds=_nan_safe(report.mttd_seconds),
            availability=report.availability)
    return summary


def _e21_fixed(p: Points, key: str) -> List[Any]:
    return [p[f"fixed-x{m}"][key] for m in _E21_MULTIPLIERS]


def _e21_mttd_grows(p: Points) -> bool:
    """Looser timeouts detect the real crash strictly later."""
    mttd = _e21_fixed(p, "mttd_seconds")
    return None not in mttd and all(a < b for a, b in zip(mttd, mttd[1:]))


_E21 = ExperimentSpec(
    name="e21_detection_tradeoff", run=e21_run,
    points=(*(PointSpec(name=f"fixed-x{m}",
                        config={"detector": "fixed", "multiplier": m})
              for m in _E21_MULTIPLIERS),
            PointSpec(name="phi", config={"detector": "phi"})),
    code_roots=("repro/fault/campaign.py", "repro/health/__init__.py",
                "repro/apps/campaigns.py"),
    description="failure-detector timeout vs MTTD, false deaths and "
                "lost work (partition + crash)",
    claims=(
        Claim("every_rollback_recovers_bit_identically", 5, lambda p: all(
            s["bit_identical"] for s in p.values())),
        Claim("every_campaign_runs_its_detector", 5, lambda p: all(
            s["detector_ran"] for s in p.values())),
        Claim("real_crash_detected_at_every_timeout", 5, lambda p: (
            None not in _e21_fixed(p, "mttd_seconds"))),
        Claim("mttd_grows_with_timeout", 5, _e21_mttd_grows),
        Claim("false_deaths_fall_with_timeout", 5, lambda p: (
            _non_increasing(_e21_fixed(p, "false_deaths")))),
        Claim("tightest_timeout_fooled_by_partition", 5,
              lambda p: _e21_fixed(p, "false_deaths")[0] >= 1),
        Claim("loosest_timeout_rides_out_partition", 5,
              lambda p: _e21_fixed(p, "false_deaths")[-1] == 0),
        Claim("every_death_forces_one_rollback", 5, lambda p: (
            _e21_fixed(p, "restarts") == _e21_fixed(p, "deaths"))),
    ),
)


# -- E22: jobs control plane -------------------------------------------------

_E22_TRACE_JOBS = 24
#: Worker crashes (time, host); ``crashes=n`` takes the first n.
_E22_CRASHES = ((2e-3, 2), (6e-3, 4))
_E22_CRASH_COUNTS = (0, 1, 2)


def e22_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E22 point: the lease-based jobs service on a 24-job SWF trace
    under one campaign — n worker crashes plus a stall, a supervisor
    outage, two duplicate submits and 2 % drops (``faulty``), its clean
    twin (``clean``), or two same-seed runs of the n-crash campaign
    (``replay``)."""
    from repro.health import DetectionSpec
    from repro.jobs import (
        DuplicateSubmitSpec,
        JobsCampaignSpec,
        ServiceConfig,
        SupervisorCrashSpec,
        WorkerCrashSpec,
        WorkerStallSpec,
        prove_determinism,
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

    # Pinned seed, for the trace and the campaign: the crash-count
    # goodput claim fails at 8 of 13 other seeds (ROADMAP item 3, seed
    # ensembles), so it is a claim about this seed.
    seed = 22
    # Generated in seconds, where SWF's integer rounding is harmless,
    # round-tripped through the archive format, then scaled to the
    # service's millisecond clock.
    generator = WorkloadGenerator(
        WorkloadParams(max_nodes=16, offered_load=2.0,
                       runtime_log_mean=math.log(2.0),
                       runtime_log_sigma=0.6, overestimate_max=2.0),
        RandomStreams(seed=seed))
    trace = parse_swf(format_swf(generator.generate(_E22_TRACE_JOBS),
                                 max_nodes=16))
    crashes = int(config["crashes"])
    spec = JobsCampaignSpec(
        requests=requests_from_jobs(tuple(scale_jobs(trace, 1e-3))),
        name=f"e22-{crashes}crash",
        service=ServiceConfig(
            workers=4, spare_workers=2,
            detection=DetectionSpec(detector="fixed",
                                    heartbeat_interval=1e-4,
                                    suspect_after=3e-4, dead_after=6e-4,
                                    monitor_host=0)),
        worker_crashes=tuple(WorkerCrashSpec(time=time, host=host)
                             for time, host in _E22_CRASHES[:crashes]),
        worker_stalls=(WorkerStallSpec(time=3e-3, host=1,
                                       duration=4e-3),),
        supervisor_crashes=(SupervisorCrashSpec(time=4.5e-3,
                                                restart_after=1.5e-3),),
        duplicate_submits=(DuplicateSubmitSpec(time=2.5e-3, index=2),
                           DuplicateSubmitSpec(time=5e-3, index=7)),
        drop_probability=0.02,
        seed=seed,
    )
    summary: Dict[str, Any] = {"trace_jobs": len(trace)}
    if config["campaign"] == "replay":
        proof = prove_determinism(spec)
        summary.update(identical=proof.identical,
                       digests=list(proof.digests))
        return summary
    if config["campaign"] == "clean":
        spec = spec.without_faults()
    outcome = run_jobs_campaign(spec)
    summary.update(
        completed=outcome.completed,
        unfinished=outcome.unfinished,
        violations=len(outcome.violations),
        effects_per_job=_effects_per_job(outcome.log_text),
        grants=outcome.grants,
        expiries=outcome.expiries,
        requeues=outcome.requeues,
        fencing_rejections=outcome.fencing_rejections,
        dedup_hits=outcome.dedup_hits,
        supervisor_restarts=outcome.supervisor_restarts,
        deaths_declared=outcome.deaths_declared,
        spare_activations=outcome.spare_activations,
        goodput=outcome.goodput,
    )
    return summary


def _effects_per_job(log_text: str) -> List[int]:
    """Durable-log effect records per job id (ids are 1-based), up to
    the largest id with an effect and never fewer than the trace's
    jobs, so an effect on a job the trace never had shows up."""
    counts = Counter(int(job) for job in
                     re.findall(r"effect job=(\d+) ", log_text))
    last = max([_E22_TRACE_JOBS, *counts])
    return [counts[job] for job in range(1, last + 1)]


#: The full campaign and its clean twin: what the safety claims cover.
_E22_FULL_AND_CLEAN = ("crash2", "clean")


def _e22_both(p: Points,
              holds: Callable[[Mapping[str, Any]], bool]) -> bool:
    return all(holds(p[name]) for name in _E22_FULL_AND_CLEAN)


def _e22_sweep(p: Points) -> List[float]:
    return [p[f"crash{n}"]["goodput"] for n in _E22_CRASH_COUNTS]


_E22 = ExperimentSpec(
    name="e22_jobs_service", run=e22_run,
    points=(*(PointSpec(name=f"crash{n}",
                        config={"campaign": "faulty", "crashes": n})
              for n in _E22_CRASH_COUNTS),
            PointSpec(name="clean",
                      config={"campaign": "clean", "crashes": 2}),
            PointSpec(name="replay",
                      config={"campaign": "replay", "crashes": 2})),
    code_roots=("repro/jobs/__init__.py",
                "repro/scheduler/__init__.py"),
    description="lease-based jobs control plane on an SWF trace: "
                "at-most-once, fencing, goodput vs crash count, replay",
    claims=(
        Claim("swf_round_trip_loses_no_jobs", 5, lambda p: all(
            s["trace_jobs"] == _E22_TRACE_JOBS for s in p.values())),
        Claim("replay_finds_no_violations", 5,
              lambda p: _e22_both(p, lambda s: s["violations"] == 0)),
        Claim("no_job_left_unfinished", 5,
              lambda p: _e22_both(p, lambda s: s["unfinished"] == 0)),
        Claim("every_trace_job_completes", 5, lambda p: _e22_both(
            p, lambda s: s["completed"] == _E22_TRACE_JOBS)),
        Claim("every_effect_lands_exactly_once", 5, lambda p: _e22_both(
            p, lambda s: s["effects_per_job"] == [1] * _E22_TRACE_JOBS)),
        Claim("full_campaign_dedups_both_retries", 5,
              lambda p: p["crash2"]["dedup_hits"] == 2),
        Claim("clean_twin_dedups_both_retries", 5,
              lambda p: p["clean"]["dedup_hits"] == 2),
        Claim("every_crash_declared_dead", 5, lambda p: (
            p["crash2"]["deaths_declared"] >= len(_E22_CRASHES))),
        Claim("supervisor_restarts_once", 5,
              lambda p: p["crash2"]["supervisor_restarts"] == 1),
        Claim("stall_expires_a_lease", 5,
              lambda p: p["crash2"]["expiries"] >= 1),
        Claim("expired_work_is_requeued", 5,
              lambda p: p["crash2"]["requeues"] >= 1),
        Claim("one_spare_per_crash", 5, lambda p: (
            p["crash2"]["spare_activations"] == len(_E22_CRASHES))),
        Claim("clean_twin_fences_nothing", 5,
              lambda p: p["clean"]["fencing_rejections"] == 0),
        Claim("clean_twin_never_restarts_supervisor", 5,
              lambda p: p["clean"]["supervisor_restarts"] == 0),
        Claim("goodput_falls_with_crash_count", 5,
              lambda p: _non_increasing(_e22_sweep(p))),
        Claim("full_campaign_below_clean_twin", 5, lambda p: (
            p["crash2"]["goodput"] < p["clean"]["goodput"])),
        Claim("clean_twin_has_the_best_goodput", 5, lambda p: _approx(
            p["clean"]["goodput"],
            max([*_e22_sweep(p), p["clean"]["goodput"]]))),
        Claim("same_seed_replays_identically", 5,
              lambda p: p["replay"]["identical"]),
        Claim("replay_digests_agree", 5,
              lambda p: len(set(p["replay"]["digests"])) == 1),
    ),
)


# -- E23: gossip vs central detection at 10^4 nodes --------------------------

_E23_NODES = 10_000
_E23_HEARTBEAT = 0.1
_E23_HORIZON = 2.0
_E23_CRASHED = (1234, 7777, 9999)
#: The partition scenario's real crash, far from the isolated host 0.
_E23_PARTITION_CRASH = 5000
_E23_PARTITION_AT = 0.5


def e23_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E23 point: one detector over a fat tree for 2 s of 0.1 s periods,
    with optional crashes and an optional blackhole of host 0 (the
    central monitor's home) in both directions — a grey failure routing
    cannot see, so nothing re-routes."""
    from repro.health import DetectionSpec, GossipMonitor, build_monitor
    from repro.health.monitor import HEARTBEAT_BYTES
    from repro.network import (
        Fabric,
        FabricFaultPlan,
        FatTreeTopology,
        get_interconnect,
    )
    from repro.sim import RandomStreams, Simulator

    nodes = int(config["nodes"])
    sim = Simulator()
    topology = FatTreeTopology(nodes)
    plan = None
    if config.get("partition"):
        plan = FabricFaultPlan()
        host, leaf = topology.route(0, 1)[0]
        plan.link_down_oneway(host, leaf, _E23_PARTITION_AT, _E23_HORIZON)
        plan.link_down_oneway(leaf, host, _E23_PARTITION_AT, _E23_HORIZON)
    fabric = Fabric(sim, topology, get_interconnect("infiniband_4x"),
                    fault_plan=plan)
    # 256 shared heartbeat slots make 10^4 nodes affordable.  Pinned
    # seed (gossip probe order): the claims were made at this one; no
    # other has been tried, at about 200 s of CPU per seed.
    monitor = build_monitor(
        sim, fabric, nodes,
        spec=DetectionSpec(detector=str(config["detector"]),
                           heartbeat_interval=_E23_HEARTBEAT,
                           suspect_after=3 * _E23_HEARTBEAT,
                           dead_after=6 * _E23_HEARTBEAT,
                           heartbeat_slots=256),
        streams=RandomStreams(seed=23))
    monitor.start()
    crashes = config.get("crashes", ())
    if crashes:
        sim.run(until=float(config["crash_at"]))
        for node in crashes:
            monitor.crash(int(node))
    sim.run(until=_E23_HORIZON)
    intervals = _E23_HORIZON / _E23_HEARTBEAT
    summary: Dict[str, Any] = {
        "events": sim.events_executed,
        "detected": sorted(d.node for d in monitor.deaths
                           if not d.false_positive),
        "false_deaths": sum(1 for d in monitor.deaths
                            if d.false_positive),
        "false_suspicions": monitor.false_suspicions,
        "mttd_seconds": _nan_safe(monitor.mttd_seconds()),
        "messages_sent": monitor.heartbeats_sent,
        "messages_delivered": monitor.heartbeats_delivered,
        "messages_lost": monitor.heartbeats_lost,
    }
    if isinstance(monitor, GossipMonitor):
        stats = monitor.gossip_stats()
        summary.update(
            suspicions=stats.suspicions,
            refutations=stats.refutations,
            indirect_probes=stats.indirect_probes,
            # The O(1) claim: the busiest node's outbound detector
            # bytes per protocol period.
            max_node_bytes_per_interval=(
                stats.max_node_bytes_sent / intervals),
            mean_node_bytes_per_interval=(
                stats.mean_node_bytes_sent / intervals))
    else:
        # The O(n) reality: every delivered heartbeat lands on the
        # monitor host.
        summary["monitor_bytes_per_interval"] = (
            monitor.heartbeats_delivered * HEARTBEAT_BYTES / intervals)
    return summary


def _e23_points() -> Tuple[PointSpec, ...]:
    crash = {"crashes": list(_E23_CRASHED), "crash_at": 0.5}
    partition = {"crashes": [_E23_PARTITION_CRASH], "crash_at": 0.6,
                 "partition": True}
    scenarios = (
        ("central_crash", "fixed", _E23_NODES, crash),
        ("gossip_crash", "gossip", _E23_NODES, crash),
        ("gossip_clean", "gossip", _E23_NODES, {}),
        ("central_partition", "fixed", _E23_NODES, partition),
        ("gossip_partition", "gossip", _E23_NODES, partition),
        # The 10^3-node twins the bytes-scaling claims divide by.
        ("central_small", "fixed", _E23_NODES // 10, {}),
        ("gossip_small", "gossip", _E23_NODES // 10, {}),
    )
    return tuple(PointSpec(name=name, config={"detector": detector,
                                              "nodes": nodes, **extra})
                 for name, detector, nodes, extra in scenarios)


def _e23_scaling(p: Points, kind: str, key: str) -> float:
    return p[f"{kind}_crash"][key] / p[f"{kind}_small"][key]


def _e23_gossip_within_2x(p: Points) -> bool:
    gossip = p["gossip_crash"]["mttd_seconds"]
    central = p["central_crash"]["mttd_seconds"]
    return None not in (gossip, central) and gossip <= 2.0 * central


_E23 = ExperimentSpec(
    name="e23_gossip_membership", run=e23_run,
    points=_e23_points(),
    code_roots=("repro/health/gossip.py", "repro/health/monitor.py",
                "repro/network/__init__.py"),
    description="SWIM gossip vs central heartbeat detection at 10^4 "
                "nodes: crashes, clean twin, monitor-host partition, "
                "bytes scaling",
    claims=(
        Claim("central_detects_every_crash", 5, lambda p: (
            p["central_crash"]["detected"] == sorted(_E23_CRASHED))),
        Claim("gossip_detects_every_crash", 5, lambda p: (
            p["gossip_crash"]["detected"] == sorted(_E23_CRASHED))),
        Claim("central_declares_no_false_deaths", 5,
              lambda p: p["central_crash"]["false_deaths"] == 0),
        Claim("gossip_declares_no_false_deaths", 5,
              lambda p: p["gossip_crash"]["false_deaths"] == 0),
        Claim("gossip_mttd_within_2x_central", 5, _e23_gossip_within_2x),
        Claim("clean_gossip_declares_no_false_deaths", 5,
              lambda p: p["gossip_clean"]["false_deaths"] == 0),
        Claim("clean_gossip_has_no_false_suspicions", 5,
              lambda p: p["gossip_clean"]["false_suspicions"] == 0),
        Claim("clean_gossip_raises_no_suspicions", 5,
              lambda p: p["gossip_clean"]["suspicions"] == 0),
        Claim("partitioned_central_is_blind", 5, lambda p: (
            p["central_partition"]["false_deaths"] >= _E23_NODES - 5)),
        Claim("partitioned_gossip_detects_the_crash", 5, lambda p: (
            _E23_PARTITION_CRASH in p["gossip_partition"]["detected"])),
        Claim("partitioned_gossip_false_deaths_at_most_25", 5,
              lambda p: p["gossip_partition"]["false_deaths"] <= 25),
        Claim("partitioned_gossip_100x_fewer_false_deaths", 5, lambda p: (
            p["gossip_partition"]["false_deaths"]
            < p["central_partition"]["false_deaths"] / 100)),
        Claim("central_monitor_bytes_grow_over_5x", 5, lambda p: (
            _e23_scaling(p, "central", "monitor_bytes_per_interval")
            > 5.0)),
        Claim("busiest_gossip_node_bytes_grow_under_2x", 5, lambda p: (
            _e23_scaling(p, "gossip", "max_node_bytes_per_interval")
            < 2.0)),
    ),
)


#: The registered fleet, in index order.
EXPERIMENTS: Tuple[ExperimentSpec, ...] = (
    *ANALYTIC_EXPERIMENTS, _E20, _E21, _E22, _E23,
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
