"""Fault campaigns against the job control plane.

A :class:`JobsCampaignSpec` declares a workload (tenant submissions)
plus a schedule of control-plane faults — worker crashes, worker
stalls, supervisor crashes with delayed restarts, duplicate
submissions, and fabric faults (link outages, probabilistic drops)
reusing the declarative specs and plan builder from
:mod:`repro.fault.campaign`.  :func:`run_jobs_campaign` executes it
deterministically and returns a :class:`JobsCampaignReport` whose
``violations`` come from the log's own replay checker
(:meth:`~repro.jobs.log.JobLog.check_invariants`) — the at-most-once
proof is *recomputed from the durable records*, never trusted from
counters.

:func:`prove_determinism` runs the same spec twice and compares the
canonical log digests byte-for-byte: same seed, same faults, same
bytes, or the campaign fails.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.fault.campaign import (
    CAMPAIGN_INTERCONNECT,
    LinkFaultSpec,
    _fat_tree,
    _kill_process,
    build_fault_plan,
)
from repro.health.monitor import DetectionOutcome
from repro.jobs.service import JobService, ServiceConfig
from repro.jobs.state import JobRequest, JobState
from repro.network.fabric import Fabric
from repro.network.technologies import get_interconnect
from repro.network.topology import FatTreeTopology
from repro.obs import NULL_OBS, Observability
from repro.scheduler.job import Job
from repro.sim.detsan import DetSanRecorder
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RandomStreams

__all__ = [
    "DeterminismProof",
    "DuplicateSubmitSpec",
    "JobsCampaignReport",
    "JobsCampaignSpec",
    "SupervisorCrashSpec",
    "WorkerCrashSpec",
    "WorkerStallSpec",
    "prove_determinism",
    "requests_from_jobs",
    "run_jobs_campaign",
]

_JOBS_MAX_EVENTS = 5_000_000
_JOBS_CHUNK_EVENTS = 100_000
#: Hard stop for a campaign's virtual clock, in seconds: jobs still
#: open here stay open, and an action due here or later is an error.
HORIZON = 0.5


# -- fault schedule specs --------------------------------------------------


@dataclass(frozen=True)
class WorkerCrashSpec:
    """At virtual ``time``, worker host ``host`` dies for real: its
    process is torn down and its heartbeats stop.  The supervisor only
    learns of it when the detector declares the death."""

    time: float
    host: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("crash time must be >= 0")
        if self.host < 1:
            raise ValueError("host must be a worker (>= 1), not the "
                             "supervisor host 0")


@dataclass(frozen=True)
class WorkerStallSpec:
    """At ``time``, worker ``host`` freezes for ``duration`` — alive
    but silent, the recipe for a lease-expiry race."""

    time: float
    host: int
    duration: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("stall time must be >= 0")
        if self.host < 1:
            raise ValueError("host must be a worker (>= 1)")
        if self.duration <= 0:
            raise ValueError("stall duration must be positive")


@dataclass(frozen=True)
class SupervisorCrashSpec:
    """At ``time`` the supervisor process dies (its undrained mailbox
    is lost with it); a fresh incarnation starts ``restart_after``
    later and rebuilds its lease table from the durable log."""

    time: float
    restart_after: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("crash time must be >= 0")
        if self.restart_after <= 0:
            raise ValueError("restart_after must be positive")


@dataclass(frozen=True)
class DuplicateSubmitSpec:
    """At ``time``, resubmit request ``index`` verbatim (a retrying
    client); the log must deduplicate it via ``(tenant, key)``."""

    time: float
    index: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("submit time must be >= 0")
        if self.index < 0:
            raise ValueError("index must be >= 0")


@dataclass(frozen=True)
class JobsCampaignSpec:
    """One declarative control-plane fault campaign."""

    requests: Tuple[JobRequest, ...]
    name: str = ""
    service: ServiceConfig = field(default_factory=ServiceConfig)
    worker_crashes: Tuple[WorkerCrashSpec, ...] = ()
    worker_stalls: Tuple[WorkerStallSpec, ...] = ()
    supervisor_crashes: Tuple[SupervisorCrashSpec, ...] = ()
    duplicate_submits: Tuple[DuplicateSubmitSpec, ...] = ()
    link_faults: Tuple[LinkFaultSpec, ...] = ()
    drop_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("campaign needs at least one request")
        hosts = self.service.total_hosts
        for crash in self.worker_crashes:
            if crash.host >= hosts:
                raise ValueError(
                    f"crash host {crash.host} >= total hosts {hosts}")
        for stall in self.worker_stalls:
            if stall.host >= hosts:
                raise ValueError(
                    f"stall host {stall.host} >= total hosts {hosts}")
        for dup in self.duplicate_submits:
            if dup.index >= len(self.requests):
                raise ValueError(
                    f"duplicate submit index {dup.index} >= "
                    f"{len(self.requests)} requests")
        outages = sorted(self.supervisor_crashes, key=lambda s: s.time)
        for earlier, later in zip(outages, outages[1:]):
            if earlier.time + earlier.restart_after > later.time:
                raise ValueError(
                    "overlapping supervisor outages: the supervisor "
                    "must restart before it can crash again")

    def topology(self) -> FatTreeTopology:
        """Full-bisection fat tree over supervisor + workers + spares."""
        return _fat_tree(self.service.total_hosts)

    def without_faults(self) -> "JobsCampaignSpec":
        """The clean twin: same workload and duplicates, zero faults
        (the goodput baseline E22 compares against)."""
        return dataclasses.replace(
            self, worker_crashes=(), worker_stalls=(),
            supervisor_crashes=(), link_faults=(), drop_probability=0.0,
            name=f"{self.name}-clean" if self.name else "clean")


# -- report ----------------------------------------------------------------


@dataclass(frozen=True)
class JobsCampaignReport:
    """Everything one campaign run measured and proved."""

    name: str
    elapsed: float
    jobs: int
    completed: int
    failed: int
    unfinished: int
    dedup_hits: int
    grants: int
    renewals: int
    renew_rejections: int
    expiries: int
    requeues: int
    rejections_stale: int
    rejections_duplicate: int
    rejections_closed: int
    supervisor_restarts: int
    deaths_declared: int
    false_deaths: int
    spare_activations: int
    false_spare_activations: int
    messages_sent: int
    messages_lost: int
    write_giveups: int
    stale_grants_dropped: int
    #: Completed work seconds / (workers * elapsed): the fraction of
    #: the fleet's capacity that became durable effects.
    goodput: float
    log_records: int
    log_digest: str
    log_text: str
    violations: Tuple[str, ...]
    detection: DetectionOutcome

    @property
    def fencing_rejections(self) -> int:
        """Total writes the log fenced out (stale + duplicate + closed)."""
        return (self.rejections_stale + self.rejections_duplicate
                + self.rejections_closed)

    @property
    def clean(self) -> bool:
        """True when every invariant held and every job closed."""
        return not self.violations and self.unfinished == 0

    def summary(self) -> str:
        """Multi-line human summary (the ``jobs`` CLI prints this)."""
        label = self.name or "jobs campaign"
        lines = [
            f"campaign {label!r}: {self.jobs} jobs -> "
            f"{self.completed} completed, {self.failed} failed, "
            f"{self.unfinished} unfinished in {self.elapsed:.6f}s",
            f"  leases: grants={self.grants} renewals={self.renewals} "
            f"expiries={self.expiries} requeues={self.requeues} "
            f"dedup={self.dedup_hits}",
            f"  fencing rejections: stale={self.rejections_stale} "
            f"duplicate={self.rejections_duplicate} "
            f"closed={self.rejections_closed} "
            f"(renewals rejected={self.renew_rejections})",
            f"  failures: supervisor restarts={self.supervisor_restarts} "
            f"deaths={self.deaths_declared} (false={self.false_deaths}) "
            f"spares activated={self.spare_activations} "
            f"(false={self.false_spare_activations})",
            f"  messages: sent={self.messages_sent} "
            f"lost={self.messages_lost} "
            f"write giveups={self.write_giveups} "
            f"stale grants dropped={self.stale_grants_dropped} "
            f"goodput={self.goodput:.4f}",
            f"  log: {self.log_records} records "
            f"digest={self.log_digest[:16]} "
            f"violations={len(self.violations)}",
        ]
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


@dataclass(frozen=True)
class DeterminismProof:
    """Same-seed reruns of one spec, compared byte-for-byte."""

    digests: Tuple[str, ...]
    reports: Tuple[JobsCampaignReport, ...]

    @property
    def identical(self) -> bool:
        """True when every rerun produced the same canonical log."""
        return len(set(self.digests)) == 1


# -- SWF-trace bridge ------------------------------------------------------


def requests_from_jobs(jobs: Tuple[Job, ...]) -> Tuple[JobRequest, ...]:
    """Turn a batch-scheduler trace into control-plane submissions.

    Each :class:`~repro.scheduler.job.Job` (typically parsed from an
    SWF trace via :func:`~repro.scheduler.swf.parse_swf`) becomes one
    ``digest`` :class:`JobRequest` from tenant ``swf`` whose
    idempotency key is the trace job id and whose payload records the
    trace shape.  Work and submit times carry over as they are: SWF
    traces live at integer seconds and the jobs service at
    milliseconds, so E22 first scales the trace with
    :func:`~repro.scheduler.job.scale_jobs` (``1e-3``).
    """
    return tuple(
        JobRequest(tenant="swf",
                   key=f"swf-{job.job_id}",
                   kernel="digest",
                   payload=(("job", job.job_id), ("nodes", job.nodes)),
                   work_seconds=job.runtime,
                   submit_time=job.submit_time)
        for job in jobs)


# -- execution -------------------------------------------------------------


@dataclass(frozen=True)
class _Action:
    """One scheduled injector step, ordered by (time, priority, seq)."""

    time: float
    priority: int
    seq: int
    kind: str
    host: int = 0
    duration: float = 0.0
    request: Optional[JobRequest] = None


def _build_actions(spec: JobsCampaignSpec) -> List[_Action]:
    """The campaign's full injection schedule, deterministically
    ordered.  Same-instant ties resolve submissions first, then
    stalls, crashes, and supervisor events — fixed so reruns replay
    identically."""
    actions: List[_Action] = []
    seq = 0

    def add(time: float, priority: int, kind: str, host: int = 0,
            duration: float = 0.0,
            request: Optional[JobRequest] = None) -> None:
        nonlocal seq
        if time >= HORIZON:
            raise ValueError(
                f"{kind} action at {time} is past the campaign "
                f"horizon {HORIZON}")
        actions.append(_Action(time=time, priority=priority, seq=seq,
                               kind=kind, host=host, duration=duration,
                               request=request))
        seq += 1

    for request in spec.requests:
        add(request.submit_time, 0, "submit", request=request)
    for dup in spec.duplicate_submits:
        add(dup.time, 1, "submit", request=spec.requests[dup.index])
    for stall in spec.worker_stalls:
        add(stall.time, 2, "stall", host=stall.host,
            duration=stall.duration)
    for crash in spec.worker_crashes:
        add(crash.time, 3, "crash-worker", host=crash.host)
    for outage in spec.supervisor_crashes:
        add(outage.time, 4, "crash-supervisor")
        add(outage.time + outage.restart_after, 5, "restart-supervisor")
    actions.sort(key=lambda a: (a.time, a.priority, a.seq))
    return actions


def _apply(sim: Simulator, service: JobService, obs: Observability,
           action: _Action) -> None:
    """Execute one injector step against the live service."""
    if action.kind == "submit":
        assert action.request is not None
        job_id, dedup = service.submit(action.request)
        obs.instant("jobs.submit", track="jobs", job=job_id, dedup=dedup)
    elif action.kind == "stall":
        service.stall_worker(action.host, action.duration)
        obs.instant("jobs.stall", track="jobs", host=action.host)
    elif action.kind == "crash-worker":
        process = service.crash_worker(action.host)
        _kill_process(sim, process, "crash")
        obs.instant("jobs.worker_crash", track="jobs", host=action.host)
    elif action.kind == "crash-supervisor":
        _kill_process(sim, service.supervisor, "crash")
        lost = service.purge_supervisor_inbox()
        obs.instant("jobs.supervisor_crash", track="jobs",
                    inbox_lost=lost)
    elif action.kind == "restart-supervisor":
        service.start_supervisor()
        obs.instant("jobs.supervisor_restart", track="jobs")
    else:  # pragma: no cover - _build_actions emits a closed set
        raise ValueError(f"unknown campaign action {action.kind!r}")


def run_jobs_campaign(
        spec: JobsCampaignSpec,
        obs: Optional[Observability] = None,
        detsan: Optional[DetSanRecorder] = None) -> JobsCampaignReport:
    """Execute one control-plane campaign deterministically.

    Drives the injection schedule against a live :class:`JobService`,
    runs until every job closes (or the horizon lands), shuts the
    service down cleanly, then *replays the durable log* to verify the
    at-most-once and fencing invariants.
    """
    if obs is None:
        obs = NULL_OBS
    streams = RandomStreams(seed=spec.seed)
    sim = Simulator(obs=obs, detsan=detsan)
    topology = spec.topology()
    plan = build_fault_plan(
        topology,
        link_faults=spec.link_faults,
        drop_probability=spec.drop_probability,
        streams=streams)
    fabric = Fabric(sim, topology, get_interconnect(CAMPAIGN_INTERCONNECT),
                    fault_plan=plan)
    service = JobService(sim, fabric, config=spec.service,
                         streams=streams)
    service.start()

    actions = _build_actions(spec)
    log = service.log
    index = 0

    def done() -> bool:
        """Every action applied and every job terminal."""
        return index >= len(actions) and log.all_terminal()

    while True:
        while index < len(actions) and sim.now >= actions[index].time:
            _apply(sim, service, obs, actions[index])
            index += 1
        if done() or sim.now >= HORIZON:
            break
        target = HORIZON
        if index < len(actions):
            target = min(target, actions[index].time)
        sim.run(until=max(target, sim.now),
                max_events=_JOBS_CHUNK_EVENTS,
                stop=done)
        if sim.events_executed > _JOBS_MAX_EVENTS:
            raise SimulationError(
                "jobs campaign exceeded its event budget: jobs can "
                "neither finish nor fail (supervisor never restarted? "
                "lease/renew intervals pathological?)")

    # Clean teardown: double pass for the same-timestamp no-op rule,
    # then quiesce so abandoned helpers close deterministically.
    service.shutdown()
    sim.run(until=sim.now)
    service.shutdown()
    sim.run(until=sim.now)
    sim.quiesce()

    elapsed = sim.now
    violations = tuple(log.check_invariants())
    completed_work = sum(
        row.work_seconds for row in log.rows.values()
        if row.state is JobState.COMPLETED)
    capacity = spec.service.workers * elapsed
    goodput = completed_work / capacity if capacity > 0 else 0.0
    unfinished = sum(
        1 for row in log.rows.values()
        if row.state not in (JobState.COMPLETED, JobState.FAILED))

    service.publish(obs)
    if obs.enabled:
        obs.metrics.gauge("jobs.goodput").set(goodput)

    return JobsCampaignReport(
        name=spec.name,
        elapsed=elapsed,
        jobs=len(log.rows),
        completed=log.completed,
        failed=log.failed,
        unfinished=unfinished,
        dedup_hits=log.dedup_hits,
        grants=log.grants,
        renewals=log.renewals,
        renew_rejections=log.renew_rejections,
        expiries=log.expiries,
        requeues=log.requeues,
        rejections_stale=log.rejections_stale,
        rejections_duplicate=log.rejections_duplicate,
        rejections_closed=log.rejections_closed,
        supervisor_restarts=service.supervisor_incarnations - 1,
        deaths_declared=len(service.monitor.deaths),
        false_deaths=service.monitor.false_deaths,
        spare_activations=service.spares.activations,
        false_spare_activations=service.spares.false_activations,
        messages_sent=service.messages_sent,
        messages_lost=service.messages_lost,
        write_giveups=service.write_giveups,
        stale_grants_dropped=service.stale_grants_dropped,
        goodput=goodput,
        log_records=len(log.records),
        log_digest=log.digest(),
        log_text=log.render(),
        violations=violations,
        detection=service.monitor.outcome(),
    )


def prove_determinism(spec: JobsCampaignSpec) -> DeterminismProof:
    """Run ``spec`` twice and compare canonical log digests.

    Every run builds a fresh simulator, fabric, and service from the
    same seed; the proof passes only when the durable logs are
    byte-identical — the whole-campaign determinism guarantee E22 and
    the ``jobs`` CLI assert.
    """
    reports = (run_jobs_campaign(spec), run_jobs_campaign(spec))
    return DeterminismProof(
        digests=tuple(report.log_digest for report in reports),
        reports=reports)
