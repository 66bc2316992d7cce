"""The benchmark's three workloads, generated from a seed.

Each workload turns ``(seed, size)`` into a list of operations.  An
operation is prepared (its inputs built: specs, traces, topologies,
fabrics, monitors) and then executed; only execution is timed as part of
the workload's pass.  Afterwards, untimed, each operation checks its
own outputs and returns

* ``out`` -- the simulated outputs (verdicts, logs, answers, makespans)
  that feed the run's canonical digest, and
* ``counts`` -- exact counters read from the program's public attributes
  (``Simulator.events_executed``, ``Fabric.transfer_count``, fault-plan
  drop counters, ``CommStats``, ``JobLog`` counters, ``gossip_stats()``,
  scheduler restarts).

The program receives only the generated inputs; nothing here depends on
wall-clock time, so the same seed gives the same outputs and counts.
"""

import contextlib
import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import repro.apps.campaigns  # noqa: F401  (registers the kernels)
from repro.fault import (
    CampaignSpec,
    LinkFaultSpec,
    NodeFaultSpec,
    run_campaign,
)
from repro.health import DegradedBatchSimulator, DetectionSpec, build_monitor
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
from repro.network import (
    Fabric,
    FabricFaultPlan,
    FatTreeTopology,
    get_interconnect,
)
from repro.network import fabric as fabric_module
from repro.scheduler import (
    BatchSimulator,
    FaultyBatchSimulator,
    JobState,
    WorkloadGenerator,
    WorkloadParams,
    format_swf,
    get_policy,
    parse_swf,
    scale_jobs,
)
from repro.sim import RandomStreams, Simulator
from repro.sim import engine as engine_module

__all__ = ["CAPTURE", "SIZES", "WORKLOADS", "Bag", "Operation", "Result",
           "build", "canonical_digest"]

#: Workload dimensions.  ``full`` is what the benchmark measures;
#: ``tiny`` keeps the same operations and checks at toy scale for the
#: benchmark's own tests.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        # detect_scale: the central monitor at E21 scale; gossip at the
        # largest fleet one run's budget affords (see NOTES.md).
        "central_nodes": 10_000, "gossip_nodes": 1024,
        # campaigns
        "ranks": 9, "stencil_n": 24, "stencil_iterations": 8,
        "summa_n": 12, "jobs_campaigns": 8, "jobs_per_campaign": 20,
        # batch_replay
        "batch_jobs": 12000, "window_jobs": 100, "conservative_jobs": 2000,
    },
    "tiny": {
        "central_nodes": 256, "gossip_nodes": 64,
        "ranks": 4, "stencil_n": 12, "stencil_iterations": 4,
        "summa_n": 8, "jobs_campaigns": 1, "jobs_per_campaign": 12,
        "batch_jobs": 120, "window_jobs": 40, "conservative_jobs": 40,
    },
}


@dataclass
class Operation:
    """One checked unit of work.

    ``prepare()`` builds its inputs and returns ``execute``, the timed
    part: a zero-argument callable, or generator function that yields
    between slices of its work, which returns ``verify``.  ``verify()``
    runs untimed: it checks the outputs and returns a :class:`Result`.
    """

    name: str
    prepare: Callable[[], Callable[[], Any]]


@dataclass
class Result:
    """What one executed operation produced: failed checks, simulated
    outputs for the digest, and exact counts."""

    problems: List[str]
    out: Dict[str, Any]
    counts: Dict[str, int]

    @property
    def ok(self) -> bool:
        """True when every output check passed."""
        return not self.problems


# -- exact counters read from public attributes ------------------------------


class Bag:
    """The simulators and fabrics one operation constructed."""

    def __init__(self) -> None:
        self.sims: List[Any] = []
        self.fabrics: List[Any] = []

    def counts(self) -> Dict[str, int]:
        """Engine and fabric counters of everything collected."""
        counts = {
            "sim.simulators": len(self.sims),
            "sim.events": sum(s.events_executed for s in self.sims),
            "network.fabrics": len(self.fabrics),
            "network.transfers": sum(f.transfer_count
                                     for f in self.fabrics),
            "network.bytes": int(sum(f.bytes_moved for f in self.fabrics)),
            "network.drops": 0, "network.reroutes": 0,
        }
        for fab in self.fabrics:
            plan = fab.fault_plan
            if plan is not None:
                counts["network.drops"] += plan.drops + plan.blackholes
                counts["network.reroutes"] += plan.reroutes
        return counts


class _Capture:
    """Collects every Simulator and Fabric constructed inside
    :meth:`collecting` into the block's bag.

    Campaigns build their simulators and fabrics internally; wrapping the
    two constructors is how their public counters stay readable from
    outside.  The wrappers only append to a list.
    """

    def __init__(self) -> None:
        self._bag: Optional[Bag] = None
        self._installed = False

    def install(self) -> None:
        """Wrap the constructors (idempotent)."""
        if self._installed:
            return
        self._installed = True
        capture = self
        sim_init = engine_module.Simulator.__init__
        fabric_init = fabric_module.Fabric.__init__

        def simulator_init(sim, *args, **kwargs):
            sim_init(sim, *args, **kwargs)
            if capture._bag is not None:
                capture._bag.sims.append(sim)

        def wrapped_fabric_init(fab, *args, **kwargs):
            fabric_init(fab, *args, **kwargs)
            if capture._bag is not None:
                capture._bag.fabrics.append(fab)

        engine_module.Simulator.__init__ = simulator_init
        fabric_module.Fabric.__init__ = wrapped_fabric_init

    @contextlib.contextmanager
    def collecting(self, bag: Bag):
        """Capture constructions inside the block into ``bag``."""
        self._bag = bag
        try:
            yield bag
        finally:
            self._bag = None


CAPTURE = _Capture()


# -- canonical digest ---------------------------------------------------------


def _canon(value: Any) -> Any:
    """JSON-ready canonical form: arrays by content hash, floats exact."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {"dtype": str(data.dtype), "shape": list(data.shape),
                "sha256": hashlib.sha256(data.tobytes()).hexdigest()}
    if isinstance(value, np.generic):
        return _canon(value.item())
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items(),
                                                      key=lambda kv:
                                                      str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canon(getattr(value, f.name))
                for f in fields(value)}
    if hasattr(value, "value") and hasattr(value, "name"):  # enums
        return value.name
    return value


def canonical_digest(value: Any) -> str:
    """SHA-256 of the canonical JSON of ``value``."""
    text = json.dumps(_canon(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _health_counts(outcome: Any) -> Dict[str, int]:
    log = outcome.health_log
    return {
        "health.messages": outcome.heartbeats_sent,
        "health.messages_lost": outcome.heartbeats_lost,
        "health.transitions": len(log),
        "health.suspicions": sum(1 for line in log
                                 if "->suspected " in line),
        "health.false_suspicions": outcome.false_suspicions,
        "health.deaths": len(outcome.detections),
        "health.false_deaths": outcome.false_deaths,
    }


# -- detect_scale -------------------------------------------------------------

HEARTBEAT = 0.1
SLOTS = 256
#: Simulated seconds from the latest possible crash to the horizon of a
#: gossip scenario.  Gossip declares a crash dead one suspicion timeout
#: (0.6 s) after the first failed probe, and which period first probes
#: the victim is luck: over 155 scenarios the latest declaration came
#: 0.7-1.33 s after the crash, each further 0.1 s about 0.6 times as
#: often as the one before, so a horizon 1.4 s after the crash fails the
#: every-crash-declared check on roughly one seed in a hundred.  2.0 s
#: leaves six more protocol periods of tail.
GOSSIP_ALLOWANCE = 2.0


def _detection_spec(detector: str) -> DetectionSpec:
    return DetectionSpec(detector=detector, heartbeat_interval=HEARTBEAT,
                         suspect_after=3 * HEARTBEAT,
                         dead_after=6 * HEARTBEAT,
                         heartbeat_slots=SLOTS)


def _isolate_host_zero(topology: Any, plan: Any, start: float,
                       end: float) -> None:
    """One-way blackholes on both directions of host 0's access link:
    a grey failure that routing never sees."""
    access = topology.route(0, 1)[0]
    plan.link_down_oneway(access[0], access[1], start, end)
    plan.link_down_oneway(access[1], access[0], start, end)


def _slices(start: float, end: float, step: float) -> List[float]:
    """Slice ends from ``start`` to exactly ``end``, ``step`` apart."""
    count = max(1, math.ceil((end - start) / step - 1e-9))
    return [start + k * step for k in range(1, count)] + [end]


def _detector_op(name: str, detector: str, topology: Any, nodes: int,
                 victims: List[int], crash_at: float, horizon: float,
                 stream_seed: int, partition_at: Optional[float],
                 step: float) -> Operation:
    def prepare():
        plan = None
        if partition_at is not None:
            plan = FabricFaultPlan()
            _isolate_host_zero(topology, plan, partition_at, horizon)
        sim = Simulator()
        fabric = Fabric(sim, topology, get_interconnect("infiniband_4x"),
                        fault_plan=plan)
        monitor = build_monitor(sim, fabric, nodes,
                                spec=_detection_spec(detector),
                                streams=RandomStreams(stream_seed))
        monitor.start()

        def execute():
            # Host-time slices of simulated time: the benchmark times
            # and calibrates each slice on its own (see run.py).
            for index, until in enumerate(_slices(0.0, crash_at, step)):
                if index:
                    yield
                sim.run(until=until)
            for node in victims:
                monitor.crash(node)
            for until in _slices(crash_at, horizon, step):
                yield
                sim.run(until=until)
            return verify

        def verify() -> Result:
            outcome = monitor.outcome()
            real = sorted(d.node for d in outcome.detections
                          if not d.false_positive)
            problems = []
            if real != sorted(victims):
                problems.append(f"{name}: detected {real}, crashed "
                                f"{sorted(victims)}")
            if partition_at is None and outcome.false_deaths:
                problems.append(f"{name}: {outcome.false_deaths} false "
                                "deaths without a partition")
            counts = _health_counts(outcome)
            out: Dict[str, Any] = {"outcome": outcome}
            if detector == "gossip":
                stats = monitor.gossip_stats()
                counts["health.refutations"] = stats.refutations
                out["gossip"] = stats
            return Result(problems, out, counts)

        return execute

    return Operation(name, prepare)


def detect_scale(seed: int, size: Dict[str, Any]) -> List[Operation]:
    """Central heartbeats at 10^4 nodes plus SWIM gossip, with crashes
    and a one-way blackhole around host 0."""
    rng = random.Random(f"detect_scale:{seed}")
    central_n, gossip_n = size["central_nodes"], size["gossip_nodes"]
    central_topo = FatTreeTopology(central_n)
    gossip_topo = FatTreeTopology(gossip_n)
    ops = [
        # The checker declares a crash dead at most dead_after plus one
        # check interval (0.65 s) after it: 0.8 s always suffices.
        _detector_op("central_crash", "fixed", central_topo, central_n,
                     rng.sample(range(1, central_n), 3),
                     crash_at=round(rng.uniform(0.05, 0.10), 4),
                     horizon=0.8, stream_seed=rng.randrange(2 ** 31),
                     partition_at=None, step=0.05),
        _detector_op("gossip_crash", "gossip", gossip_topo, gossip_n,
                     rng.sample(range(1, gossip_n), 3),
                     crash_at=round(rng.uniform(0.05, 0.10), 4),
                     horizon=0.10 + GOSSIP_ALLOWANCE,
                     stream_seed=rng.randrange(2 ** 31),
                     partition_at=None, step=0.1),
        # The real crash lands far from the isolated host 0.
        _detector_op("gossip_blackhole", "gossip", gossip_topo, gossip_n,
                     [rng.randrange(gossip_n // 2, gossip_n)],
                     crash_at=round(rng.uniform(0.30, 0.35), 4),
                     horizon=0.35 + GOSSIP_ALLOWANCE,
                     stream_seed=rng.randrange(2 ** 31),
                     partition_at=0.3, step=0.1),
    ]
    return ops


# -- campaigns ----------------------------------------------------------------

CAMPAIGN_HB = 1e-4
#: Gossip probes are round trips through relay chains, so its protocol
#: period must dwarf the gigabit-ethernet RTT (as in the health CLI).
GOSSIP_HB = 1e-3

_DETECTORS: Dict[str, Optional[DetectionSpec]] = {
    "oracle": None,
    "fixed": DetectionSpec(detector="fixed", heartbeat_interval=CAMPAIGN_HB,
                           suspect_after=3 * CAMPAIGN_HB,
                           dead_after=6 * CAMPAIGN_HB),
    "phi": DetectionSpec(detector="phi", heartbeat_interval=CAMPAIGN_HB),
    "gossip": DetectionSpec(detector="gossip", heartbeat_interval=GOSSIP_HB,
                            suspect_after=3 * GOSSIP_HB,
                            dead_after=6 * GOSSIP_HB),
}

JOBS_DETECTION = DetectionSpec(detector="fixed", heartbeat_interval=1e-4,
                               suspect_after=3e-4, dead_after=6e-4,
                               monitor_host=0)


def _fault_campaign_op(spec: CampaignSpec) -> Operation:
    def prepare():
        reports = []

        def execute():
            reports.append(run_campaign(spec))
            return verify

        def verify() -> Result:
            report = reports.pop()
            problems = []
            if not report.answers_match:
                problems.append(f"{spec.name}: answers diverged from the "
                                "clean replay")
            faulty, clean = report.faulty, report.clean
            stats = faulty.comm_stats
            counts = {
                "messaging.acks": stats.get("acks", 0),
                "messaging.retries": stats.get("retries", 0),
                "messaging.op_timeouts": stats.get("op_timeouts", 0),
                "fault.campaigns": 1,
                "fault.incarnations": faulty.incarnations,
                "fault.commits": faulty.commits,
                "fault.clean_elapsed_ns": round(clean.elapsed * 1e9),
                "fault.faulty_elapsed_ns": round(faulty.elapsed * 1e9),
            }
            if faulty.detection is not None:
                counts.update(_health_counts(faulty.detection))
            out = {"faulty": faulty, "clean_elapsed": clean.elapsed,
                   "clean_answers": clean.answers,
                   "answers_match": report.answers_match}
            return Result(problems, out, counts)

        return execute

    return Operation(spec.name, prepare)


def _swf_trace(seed: int, count: int, max_nodes: int,
               window: Optional[int] = None, **params: Any):
    """A synthetic trace that went through SWF text and back.

    With ``window`` the gaps between arrivals are stretched, window by
    window, so each ``window`` consecutive jobs offer exactly the
    requested load: replay cost then depends on the seed through the
    job mix, not through sample loads that run a few percent hot or
    cold.
    """
    workload = WorkloadParams(max_nodes=max_nodes, **params)
    natural = WorkloadGenerator(workload,
                                RandomStreams(seed=seed)).generate(count)
    if window is not None:
        stretched, now = [], natural[0].submit_time
        for first in range(0, count, window):
            jobs = natural[first:first + window]
            gaps = [b.submit_time - a.submit_time
                    for a, b in zip([natural[max(first - 1, 0)]] + jobs,
                                    jobs)]
            demand = sum(job.nodes * job.runtime for job in jobs)
            stretch = demand / (max_nodes * workload.offered_load
                                * max(sum(gaps), 1e-9))
            for job, gap in zip(jobs, gaps):
                now += gap * stretch
                stretched.append(dataclasses.replace(job, submit_time=now))
        natural = stretched
    trip = parse_swf(format_swf(natural, max_nodes=max_nodes))
    if len(trip) != count:
        raise RuntimeError("SWF round trip lost jobs")
    return trip


def _jobs_campaign_op(spec: JobsCampaignSpec) -> Operation:
    def prepare():
        reports = []

        def execute():
            reports.append(run_jobs_campaign(spec))
            return verify

        def verify() -> Result:
            report = reports.pop()
            problems = [f"{spec.name}: {v}" for v in report.violations]
            if report.unfinished:
                problems.append(f"{spec.name}: {report.unfinished} jobs "
                                "not terminal at the horizon")
            counts = {
                "jobs.campaigns": 1,
                "jobs.jobs": report.jobs,
                "jobs.completed": report.completed,
                "jobs.grants": report.grants,
                "jobs.requeues": report.requeues,
                "jobs.fencing_rejections": report.fencing_rejections,
                "jobs.log_records": report.log_records,
            }
            counts.update(_health_counts(report.detection))
            out = {"log_digest": report.log_digest,
                   "elapsed": report.elapsed, "goodput": report.goodput,
                   "messages_sent": report.messages_sent,
                   "messages_lost": report.messages_lost}
            return Result(problems, out, counts)

        return execute

    return Operation(spec.name, prepare)


def campaigns(seed: int, size: Dict[str, Any]) -> List[Operation]:
    """Fault campaigns of two kernels under four recovery modes, plus
    jobs control-plane campaigns over an SWF-round-tripped trace."""
    rng = random.Random(f"campaigns:{seed}")
    ranks = size["ranks"]
    kernels = (
        ("stencil2d", (("n", size["stencil_n"]),
                       ("iterations", size["stencil_iterations"]))),
        ("summa", (("n", size["summa_n"]),)),
    )
    ops: List[Operation] = []
    for kernel, app_args in kernels:
        first, second = rng.sample(range(ranks), 2)
        node_faults = (
            NodeFaultSpec(time=round(rng.uniform(4e-4, 1.0e-3), 6),
                          rank=first),
            NodeFaultSpec(time=round(rng.uniform(1.6e-3, 2.2e-3), 6),
                          rank=second),
        )
        host = rng.randrange(ranks)
        probe = CampaignSpec(kernel=kernel, ranks=ranks)
        access = probe.topology().route(host, (host + 1) % ranks)[0]
        link_faults = (LinkFaultSpec(
            start=round(rng.uniform(1e-4, 5e-4), 6), duration=1e-3,
            a=access[0], b=access[1]),)
        spec_seed = rng.randrange(2 ** 31)
        for mode, detection in _DETECTORS.items():
            # Gossip campaigns run without the link outage: with it, a
            # crash that follows the outage can leave gossip-driven
            # recovery stalled until the supervisor's event budget trips
            # (an open defect, reproducer in NOTES.md).
            ops.append(_fault_campaign_op(CampaignSpec(
                kernel=kernel, ranks=ranks, name=f"{kernel}-{mode}",
                app_args=app_args, node_faults=node_faults,
                link_faults=() if mode == "gossip" else link_faults,
                restart_seconds=2e-4,
                checkpoint_write_seconds=1e-4, seed=spec_seed,
                detection=detection)))

    jobs_count = size["jobs_per_campaign"]
    for index in range(size["jobs_campaigns"]):
        trace = _swf_trace(rng.randrange(2 ** 31), jobs_count, 16,
                           offered_load=2.0,
                           runtime_log_mean=float(np.log(2.0)),
                           runtime_log_sigma=0.6, overestimate_max=2.0)
        requests = requests_from_jobs(tuple(scale_jobs(trace, 1e-3)))
        workers = rng.sample(range(1, 5), 2)
        ops.append(_jobs_campaign_op(JobsCampaignSpec(
            requests=requests, name=f"jobs-{index}",
            service=ServiceConfig(workers=4, spare_workers=2,
                                  detection=JOBS_DETECTION),
            worker_crashes=(
                WorkerCrashSpec(time=round(rng.uniform(1.5e-3, 3e-3), 6),
                                host=workers[0]),
                WorkerCrashSpec(time=round(rng.uniform(5e-3, 7e-3), 6),
                                host=workers[1])),
            worker_stalls=(WorkerStallSpec(
                time=round(rng.uniform(2e-3, 4e-3), 6),
                host=rng.randrange(1, 5), duration=4e-3),),
            supervisor_crashes=(SupervisorCrashSpec(
                time=round(rng.uniform(3.5e-3, 5.5e-3), 6),
                restart_after=1.5e-3),),
            duplicate_submits=tuple(
                DuplicateSubmitSpec(time=round(rng.uniform(2e-3, 6e-3), 6),
                                    index=i)
                for i in sorted(rng.sample(range(jobs_count), 2))),
            drop_probability=0.02,
            seed=rng.randrange(2 ** 31))))
    return ops


# -- batch_replay -------------------------------------------------------------

BATCH_NODES = 128


def _check_no_overcommit(records: List[Any], total: int) -> List[str]:
    """Sweep start/end instants: busy nodes never exceed the machine."""
    deltas: Dict[float, int] = {}
    for record in records:
        deltas[record.start_time] = (deltas.get(record.start_time, 0)
                                     + record.job.nodes)
        deltas[record.end_time] = (deltas.get(record.end_time, 0)
                                   - record.job.nodes)
    busy = 0
    for when in sorted(deltas):
        busy += deltas[when]
        if busy > total:
            return [f"{busy} nodes busy at t={when!r} on a {total}-node "
                    "machine"]
    return []


def _replay_op(name: str, kind: str, policy: str,
               windows: List[List[Any]], mtbf: float,
               stream_seeds: List[int]) -> Operation:
    def simulator(stream_seed: int) -> Any:
        if kind == "batch":
            return BatchSimulator(BATCH_NODES, get_policy(policy))
        if kind == "faulty":
            return FaultyBatchSimulator(
                BATCH_NODES, get_policy(policy), node_mtbf_seconds=mtbf,
                repair_seconds=3600.0, checkpoint_interval=3600.0,
                streams=RandomStreams(stream_seed))
        return DegradedBatchSimulator(
            BATCH_NODES, get_policy(policy), node_mtbf_seconds=mtbf,
            detection_seconds=60.0, repair_seconds=3600.0,
            spare_nodes=4, requeue_backoff_seconds=30.0,
            checkpoint_interval=3600.0,
            streams=RandomStreams(stream_seed))

    def prepare():
        simulators = [simulator(seed) for seed, _ in zip(stream_seeds,
                                                          windows)]

        results = []

        def execute():
            for sim, jobs in zip(simulators, windows):
                results.append(sim.run(jobs))
            return verify

        def verify() -> Result:
            problems: List[str] = []
            counts: Dict[str, int] = {}
            outs = []
            for result, jobs in zip(results, windows):
                _tally(counts, {"scheduler.replays": 1,
                                "scheduler.jobs": len(jobs)})
                if kind == "batch":
                    unfinished = sum(1 for r in result.records
                                     if r.state is not JobState.FINISHED)
                    problems += _check_no_overcommit(result.records,
                                                     BATCH_NODES)
                    outs.append({"makespan": result.makespan,
                                 "starts": [r.start_time
                                            for r in result.records]})
                else:
                    unfinished = len(jobs) - len(result.completions)
                    wasted = (result.lost_node_seconds
                              + getattr(result, "zombie_node_seconds", 0.0))
                    _tally(counts, {
                        "scheduler.failures": result.failures,
                        "scheduler.restarts": result.job_kills,
                        "scheduler.goodput_node_s": round(
                            result.goodput_node_seconds),
                        "scheduler.work_node_s": round(
                            result.goodput_node_seconds + wasted),
                    })
                    outs.append({"makespan": result.makespan,
                                 "completions": sorted(
                                     result.completions.items()),
                                 "goodput": result.goodput_node_seconds,
                                 "failures": result.failures})
                if unfinished:
                    problems.append(f"{name}: {unfinished} jobs never "
                                    "finished")
            return Result(problems, {"windows": outs}, counts)

        return execute

    return Operation(name, prepare)


def _tally(counts: Dict[str, int], more: Dict[str, int]) -> None:
    for key, value in more.items():
        counts[key] = counts.get(key, 0) + value


def batch_replay(seed: int, size: Dict[str, Any]) -> List[Operation]:
    """One SWF-round-tripped trace on 128 nodes at 0.85 offered load,
    replayed by the three batch simulators under three policies."""
    rng = random.Random(f"batch_replay:{seed}")
    trace = _swf_trace(rng.randrange(2 ** 31), size["batch_jobs"],
                       BATCH_NODES, window=size["window_jobs"],
                       offered_load=0.85)
    # The trace is replayed in consecutive windows, each on a fresh
    # machine: a replay's cost grows with the backlog its sample happens
    # to build, and summing many windows averages that out.
    width = size["window_jobs"]
    windows = [trace[i:i + width] for i in range(0, len(trace), width)]
    # System MTBF of about a day: a few failures per window.
    mtbf = BATCH_NODES * 86400.0
    # Each window fails on its own stream, so failure counts average
    # out over the windows instead of repeating one draw in all of them.
    stream_seeds = [rng.randrange(2 ** 31) for _ in windows]
    ops = []
    for policy in ("fcfs", "easy", "conservative"):
        # Conservative backfill replays fewer windows: over all of them
        # its reservation profile would take most of the replay time, and
        # the three simulators' own event loops would not show.
        replayed = windows
        if policy == "conservative":
            replayed = windows[:size["conservative_jobs"]
                               // size["window_jobs"]]
        for kind in ("batch", "faulty", "degraded"):
            ops.append(_replay_op(f"{kind}-{policy}", kind, policy,
                                  replayed, mtbf, stream_seeds))
    return ops


WORKLOADS: Dict[str, Callable[[int, Dict[str, Any]], List[Operation]]] = {
    "detect_scale": detect_scale,
    "campaigns": campaigns,
    "batch_replay": batch_replay,
}


def build(workload: str, seed: int, size: str = "full") -> List[Operation]:
    """The operations of ``workload`` for ``seed`` at ``size``."""
    return WORKLOADS[workload](seed, SIZES[size])
