"""Declarative fault campaigns: real kernels under injected failures.

A *campaign* runs one application kernel (registered via
:func:`register_kernel`) across simulated ranks while a schedule of
**node faults** (a rank's machine dies, the job is torn down and
restarted from the last coordinated checkpoint) and **link down
windows** (the fabric drops or re-routes traffic) plays out.  The runner
then re-executes the identical workload with faults disabled and checks
the answers are **bit-identical** — the end-to-end proof that recovery
preserved correctness, not just liveness.

The moving parts, bottom-up:

* :class:`CheckpointVault` — in-memory coordinated checkpoint store; a
  version commits only when *every* rank has staged it, so a failure
  mid-checkpoint rolls back to the previous complete version;
* :class:`RankCheckpoint` — the per-rank handle kernels see: a
  ``restored`` state (or ``None`` on fresh start) and a coordinated
  ``save`` (barrier, write cost, stage);
* :func:`run_campaign` — the supervisor, one loop for every recovery
  mode: it spawns an incarnation of the job, advances virtual time to
  the next *death declaration*, tears the job down (every rank
  interrupted, the victim with a
  :class:`~repro.sim.causes.FailureCause`), pays the restart cost, and
  respawns from the vault — repeating until the job completes; then
  replays the failure-free run and compares answers.

Who declares a death is the only difference between recovery modes.
Without a :class:`~repro.health.monitor.DetectionSpec` the oracle
declares a node fault dead the instant it strikes: zero-latency
detection.  With one, a fault only stops its victim, and a heartbeat or
gossip monitor on the same fabric must notice; recovery then pays the
time-to-detect, and may act on a partition's false declaration.

Everything is deterministic for a fixed seed: fault times are declared,
retry jitter and random loss draw from named
:class:`~repro.sim.rng.RandomStreams` streams, and the event kernel
breaks ties by scheduling order — so the same spec reproduces the same
failure trace, retry counts, and metrics, which the tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.health.gossip import build_monitor
from repro.health.monitor import (
    DeathRecord,
    DetectionOutcome,
    DetectionSpec,
    MembershipMonitor,
)
from repro.messaging.comm import CommConfig, CommWorld, Communicator
from repro.network.fabric import Fabric, FabricFaultPlan
from repro.network.technologies import get_interconnect
from repro.network.topology import FatTreeTopology, Node
from repro.obs import NULL_OBS, Observability
from repro.sim.causes import AbortCause, FailureCause
from repro.sim.detsan import DetSanRecorder
from repro.sim.engine import Process, SimulationError, Simulator
from repro.sim.rng import RandomStreams

__all__ = [
    "NodeFaultSpec",
    "LinkFaultSpec",
    "CampaignSpec",
    "CampaignReport",
    "CheckpointVault",
    "RankCheckpoint",
    "RunOutcome",
    "register_kernel",
    "get_kernel",
    "available_kernels",
    "build_fault_plan",
    "run_campaign",
    "run_workload",
]

#: A kernel factory maps (ranks, streams, app_args) to a rank body
#: ``body(comm, ckpt)`` — a generator returning the rank's answer.
KernelFactory = Callable[[int, RandomStreams, Dict[str, Any]],
                         Callable[[Communicator, "RankCheckpoint"], Any]]

_KERNELS: Dict[str, KernelFactory] = {}

#: Interconnect of every campaign fabric, fault and jobs campaigns alike.
CAMPAIGN_INTERCONNECT = "gigabit_ethernet"
#: Retransmissions a campaign message gets before delivery gives up.
_MAX_RETRIES = 12


def register_kernel(name: str, factory: KernelFactory) -> None:
    """Register an app kernel for campaigns (idempotent per name)."""
    _KERNELS[name] = factory


def get_kernel(name: str) -> KernelFactory:
    """Look up a registered kernel factory by name."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {available_kernels()} "
            "(import repro.apps.campaigns to register the standard ones)"
        ) from None


def available_kernels() -> List[str]:
    """Registered kernel names, sorted."""
    return sorted(_KERNELS)


# -- fault schedule specs --------------------------------------------------


@dataclass(frozen=True)
class NodeFaultSpec:
    """At virtual ``time``, the node hosting ``rank`` dies: the job is
    torn down and restarted from the last committed checkpoint."""

    time: float
    rank: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be >= 0")
        if self.rank < 0:
            raise ValueError("victim rank must be >= 0")


@dataclass(frozen=True)
class LinkFaultSpec:
    """The link between graph nodes ``a`` and ``b`` is down for
    ``[start, start + duration)``; traffic re-routes or retries."""

    start: float
    duration: float
    a: Node
    b: Node

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ValueError("need start >= 0 and duration > 0")


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative fault campaign.

    ``app_args`` is a tuple of ``(key, value)`` pairs (hashable stand-in
    for a dict) handed to the kernel factory.  ``checkpoint_every``
    checkpoints after every k-th kernel step.  The messaging layer is
    always fault-aware and runs reliable by default — a campaign
    without reliable delivery deadlocks on the first lost message,
    which is itself a result (the "no-recovery cliff" of bench E20).
    """

    kernel: str
    ranks: int
    name: str = ""
    app_args: Tuple[Tuple[str, Any], ...] = ()
    node_faults: Tuple[NodeFaultSpec, ...] = ()
    link_faults: Tuple[LinkFaultSpec, ...] = ()
    seed: int = 0
    checkpoint_every: int = 1
    checkpoint_write_seconds: float = 1e-3
    restart_seconds: float = 5e-3
    drop_probability: float = 0.0
    reliable: bool = True
    #: When set, the faulty run recovers from *detected* deaths (a
    #: heartbeat monitor through the fabric) instead of the oracle:
    #: rollback waits for the detector, lost work includes time-to-
    #: detect, and a partition can trigger a spurious-but-safe rollback.
    detection: Optional[DetectionSpec] = None

    def __post_init__(self) -> None:
        if self.ranks < 1:
            raise ValueError("need at least one rank")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.checkpoint_write_seconds < 0 or self.restart_seconds < 0:
            raise ValueError("checkpoint/restart costs must be >= 0")
        for fault in self.node_faults:
            if fault.rank >= self.ranks:
                raise ValueError(
                    f"node fault victim {fault.rank} >= ranks {self.ranks}")

    def comm_config(self) -> CommConfig:
        """The messaging configuration this campaign runs under."""
        return CommConfig(reliable=self.reliable, fault_aware=True,
                          max_retries=_MAX_RETRIES)

    def topology(self) -> FatTreeTopology:
        """Full-bisection fat tree (spine redundancy enables re-routing)."""
        return _fat_tree(self.ranks)


def _fat_tree(hosts: int) -> FatTreeTopology:
    """The campaign fabric's shape: a fat tree with ``ceil(hosts / 4)``
    (at least 2) hosts per leaf and as many spines, so every leaf has
    full bisection.  Jobs campaigns size theirs the same way."""
    per_leaf = max(2, -(-hosts // 4))  # ceil(hosts / 4)
    return FatTreeTopology(hosts, hosts_per_leaf=per_leaf, spines=per_leaf)


# -- coordinated checkpointing ---------------------------------------------


class CheckpointVault:
    """Versioned, coordinated checkpoint store (reliable storage model).

    A version commits only once every rank has staged it; partial stages
    (a failure landed mid-checkpoint) are discarded on rollback, so
    restarts only ever see complete, consistent cuts.
    """

    def __init__(self, ranks: int) -> None:
        if ranks < 1:
            raise ValueError("need at least one rank")
        self.ranks = ranks
        self._staged: Dict[int, Dict[int, Any]] = {}
        self._committed: Optional[Tuple[int, Dict[int, Any]]] = None
        self.commits = 0
        #: ``(virtual time, step)`` of every commit, in order.
        self.commit_times: List[Tuple[float, int]] = []

    def stage(self, rank: int, step: int, state: Any, now: float) -> None:
        """Record one rank's state for version ``step``; commits the
        version when the last rank arrives."""
        bucket = self._staged.setdefault(step, {})
        bucket[rank] = state
        if len(bucket) == self.ranks:
            self._committed = (step, bucket)
            self.commits += 1
            self.commit_times.append((now, step))
            for stale in [s for s in self._staged if s <= step]:
                del self._staged[stale]

    def rollback(self) -> None:
        """Discard partial stages (called at teardown after a fault)."""
        self._staged.clear()

    @property
    def latest(self) -> Optional[Tuple[int, Dict[int, Any]]]:
        """The newest committed ``(step, {rank: state})``, or ``None``."""
        return self._committed

    @property
    def last_commit_time(self) -> Optional[float]:
        """When the most recent checkpoint committed (None if never)."""
        return self.commit_times[-1][0] if self.commit_times else None


class RankCheckpoint:
    """Per-rank checkpoint handle handed to kernels.

    ``restored`` is this rank's state from the newest committed version
    (``None`` on a fresh start); ``interval`` is how many kernel steps
    between checkpoints; :meth:`save` is the coordinated write.
    """

    def __init__(self, vault: CheckpointVault, comm: Communicator,
                 write_seconds: float, interval: int = 1) -> None:
        self.vault = vault
        self.comm = comm
        self.write_seconds = write_seconds
        self.interval = interval
        committed = vault.latest
        self.restored_step: Optional[int] = None
        self.restored: Optional[Any] = None
        if committed is not None:
            self.restored_step = committed[0]
            self.restored = committed[1].get(comm.rank)

    def due(self, completed_steps: int) -> bool:
        """Should the kernel checkpoint after ``completed_steps`` steps?"""
        return completed_steps % self.interval == 0

    def save(self, step: int, state: Any):
        """Generator: coordinated checkpoint of ``state`` as version
        ``step`` — barrier (every rank quiesces at the same cut), write
        cost, then stage into the vault."""
        obs = self.comm.sim.obs
        with obs.span("ckpt.save", step=step, rank=self.comm.rank):
            yield from self.comm.barrier()
            if self.write_seconds > 0:
                yield self.comm.sim.timeout(self.write_seconds)
            self.vault.stage(self.comm.rank, step, state,
                             self.comm.sim.now)
        if obs.enabled:
            committed = self.vault.latest
            if committed is not None and committed[0] == step:
                # This rank's stage completed the version: the commit
                # instant lands exactly once per committed cut.
                obs.instant("ckpt.commit", step=step)
                obs.metrics.counter("ckpt.commits").inc()


# -- campaign execution ----------------------------------------------------


@dataclass(frozen=True)
class RunOutcome:
    """One full execution (clean or faulty) of the campaign workload."""

    elapsed: float
    answers: Tuple[Any, ...]
    incarnations: int
    commits: int
    fault_trace: Tuple[Tuple[float, int, Optional[int]], ...]
    lost_work_seconds: float
    recovery_seconds: float
    comm_stats: Dict[str, int]
    fabric_counters: Dict[str, int]
    #: Detector measurements when the run was detection-driven.
    detection: Optional[DetectionOutcome] = None


@dataclass(frozen=True)
class CampaignReport:
    """What a campaign measured, plus the correctness verdict."""

    spec: CampaignSpec
    clean: RunOutcome
    faulty: RunOutcome
    answers_match: bool

    @property
    def goodput(self) -> float:
        """Failure-free elapsed time over faulty elapsed time (1.0 means
        faults cost nothing; the no-recovery cliff drives this to 0)."""
        if self.faulty.elapsed <= 0:
            return 1.0
        return self.clean.elapsed / self.faulty.elapsed

    @property
    def retries(self) -> int:
        """Retransmissions the faulty run needed."""
        return self.faulty.comm_stats.get("retries", 0)

    def summary(self) -> str:
        """One paragraph for CLI output."""
        f = self.faulty
        text = (
            f"campaign {self.spec.name or self.spec.kernel!r}: "
            f"{len(f.fault_trace)} node fault(s), "
            f"{self.spec.topology().num_switches} switches, "
            f"{f.incarnations - 1} restart(s), {f.commits} checkpoint "
            f"commit(s), {f.comm_stats.get('retries', 0)} retransmit(s); "
            f"elapsed {f.elapsed:.6f}s vs {self.clean.elapsed:.6f}s clean "
            f"(goodput {self.goodput:.3f}); lost work "
            f"{f.lost_work_seconds:.6f}s; answers "
            f"{'bit-identical' if self.answers_match else 'DIVERGED'}"
        )
        detection = f.detection
        if detection is not None:
            mttd = detection.mttd_seconds
            mttd_text = ("n/a" if math.isnan(mttd)
                         else f"{mttd * 1000.0:.3f}ms")
            text += (
                f"; detector declared {len(detection.detections)} "
                f"death(s) ({detection.false_deaths} false), "
                f"MTTD {mttd_text}, availability "
                f"{detection.availability:.4f}"
            )
        return text


def _answers_equal(left: Any, right: Any) -> bool:
    """Bit-identical comparison across per-rank answer structures."""
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return bool(np.array_equal(np.asarray(left), np.asarray(right)))
    return bool(left == right)


def build_fault_plan(
        topology: FatTreeTopology,
        link_faults: Tuple[LinkFaultSpec, ...] = (),
        drop_probability: float = 0.0,
        streams: Optional[RandomStreams] = None,
) -> Optional[FabricFaultPlan]:
    """The fabric fault plan for a faulty run (None when no fabric
    faults are declared).  Endpoints are validated against the topology
    so a typo'd node name fails loudly instead of silently never
    matching a route (hosts are ``("h", rank)``, switches ``("s", i)``).

    Shared by :func:`run_campaign` here and the job-control-plane
    campaigns in :mod:`repro.jobs.campaign` — one translation from
    declarative fault specs to a live :class:`FabricFaultPlan`.
    """
    random_faults = drop_probability > 0
    if not (link_faults or random_faults):
        return None
    rng = None
    if random_faults:
        if streams is None:
            raise ValueError(
                "probabilistic fabric faults need a RandomStreams")
        rng = streams.get("network.faults")
    plan = FabricFaultPlan(drop_probability=drop_probability, rng=rng)
    for lf in link_faults:
        if not topology.graph.has_edge(lf.a, lf.b):
            raise ValueError(
                f"link fault on {lf.a!r}--{lf.b!r}: no such link in the "
                f"campaign topology (hosts are ('h', rank), switches "
                f"('s', i))")
        plan.link_down(lf.a, lf.b, lf.start, lf.start + lf.duration)
    return plan


def _teardown(procs: List[Process], victim: int, index: int) -> None:
    """Interrupt every live rank of the incarnation.

    A process whose pending wakeup is due at this very instant no-ops
    the first interrupt (it "finished first" — the same-timestamp rule),
    so the caller drains the queue and calls this again; the second pass
    always lands because survivors then wait on strictly-future events.
    """
    for rank, process in enumerate(procs):
        if process.is_alive:
            if rank == victim:
                process.interrupt(FailureCause.numbered(index))
            else:
                process.interrupt(AbortCause.numbered(victim, index))


def _kill_process(sim: Simulator, process: Optional[Process],
                  cause: Any) -> None:
    """Tear down one process with the double-interrupt dance (the
    same-timestamp no-op rule means the first interrupt can be
    ignored by a process whose wakeup is due this very instant).
    The jobs campaigns kill crashed workers and supervisors with it."""
    if process is None or not process.is_alive:
        return
    process.interrupt(cause)
    sim.run(until=sim.now)
    if process.is_alive:
        process.interrupt(cause)
        sim.run(until=sim.now)


def _collect_counters(plan: Optional[FabricFaultPlan]) -> Dict[str, int]:
    """Fabric fault-plan counters (zeros when no plan was active)."""
    if plan is None:
        return {
            "drops": 0, "corruptions": 0, "reroutes": 0, "unreachable": 0,
            "link_outages": 0,
        }
    return {
        "drops": plan.drops,
        "corruptions": plan.corruptions,
        "reroutes": plan.reroutes,
        "unreachable": plan.unreachable,
        "link_outages": plan.link_outages,
    }


def _collect_comm_stats(worlds: List[CommWorld]) -> Dict[str, int]:
    """Sum messaging stats across incarnations' worlds, so retransmits
    from torn-down incarnations still count."""
    comm_stats: Dict[str, int] = {}
    for world in worlds:
        for key, value in world.stats.snapshot().items():
            comm_stats[key] = comm_stats.get(key, 0) + value
    return comm_stats


def _first_failure(procs: List[Process]) -> Optional[BaseException]:
    """The exception of the first rank that raised (None if none did)."""
    return next((p.value for p in procs if p.triggered and not p.ok), None)


def _verify_procs(procs: List[Process]) -> None:
    """Final-incarnation sanity: every rank finished cleanly.  A rank's
    own failure is reported ahead of the ranks it left blocked."""
    failure = _first_failure(procs)
    if failure is not None:
        raise failure
    for rank, process in enumerate(procs):
        if not process.triggered:
            raise SimulationError(
                f"campaign deadlock: rank {rank} still blocked after the "
                "event queue drained (message lost without reliable "
                "delivery, or an un-recovered failure)"
            )


def _publish_run_metrics(obs: Observability, incarnations: int,
                         lost_work: float, recovery: float, elapsed: float,
                         comm_stats: Dict[str, int],
                         counters: Dict[str, int]) -> None:
    """Push the per-run campaign, messaging and fabric gauges."""
    if not obs.enabled:
        return
    metrics = obs.metrics
    metrics.gauge("campaign.incarnations").set(float(incarnations))
    metrics.gauge("campaign.lost_work_seconds").set(lost_work)
    metrics.gauge("campaign.recovery_seconds").set(recovery)
    metrics.gauge("campaign.elapsed_seconds").set(elapsed)
    for key, value in comm_stats.items():
        metrics.gauge(f"comm.stats.{key}").set(float(value))
    for key, value in counters.items():
        metrics.gauge(f"fabric.plan.{key}").set(float(value))


#: Event-budget backstop for detection-driven runs: the monitor keeps
#: the queue non-empty forever, so a supervisor bug would otherwise spin
#: silently instead of deadlocking the queue like the oracle path.
_DETECTION_MAX_EVENTS = 5_000_000
_DETECTION_CHUNK_EVENTS = 100_000


def _oracle_deaths(sim: Simulator, obs: Observability,
                   procs: List[Process],
                   faults: List[NodeFaultSpec]) -> List[DeathRecord]:
    """Zero-latency detection: run to the next fault and declare its
    victim dead the instant it strikes.  An empty list means the job is
    over: it finished first, or the queue drained with no fault left.
    """
    if not faults:
        sim.run()
        return []
    fault = faults.pop(0)
    # A fault scheduled before `now` struck while the job was down
    # (mid-restart): it hits the new incarnation the instant it comes up.
    sim.run(until=max(fault.time, sim.now))
    if all(p.triggered for p in procs):
        return []  # The job beat the fault; it hits an idle machine.
    obs.instant("campaign.node_fault", track="campaign", time=sim.now,
                rank=fault.rank)
    return [DeathRecord(fault.rank, sim.now, sim.now)]


def _detected_deaths(sim: Simulator, obs: Observability,
                     monitor: MembershipMonitor, procs: List[Process],
                     faults: List[NodeFaultSpec],
                     failures: int) -> List[DeathRecord]:
    """Run until ``monitor`` declares a death, which may be a
    partition's lie; an empty list means the job is over.

    A scheduled fault only *stops its victim* (its rank process dies as
    failure number ``failures``, its heartbeats cease), so the deaths
    come later, and the lost work includes the time-to-detect.
    """

    def job_complete() -> bool:
        """The workload is done and no recovery is owed."""
        if not all(p.triggered for p in procs):
            return False
        if monitor.crashed_nodes or monitor.pending_deaths:
            return False
        # A rank failed with nothing left to recover it: stop and let
        # the final verification surface the error.
        return all(p.ok for p in procs) or not faults

    while True:
        deaths = monitor.pop_deaths()
        if deaths or job_complete():
            return deaths
        if faults and sim.now >= faults[0].time:
            fault = faults.pop(0)
            if all(p.triggered and p.ok for p in procs):
                continue  # the job beat the fault: an idle machine
            obs.instant("campaign.node_fault", track="campaign",
                        rank=fault.rank)
            _kill_process(sim, procs[fault.rank],
                          FailureCause.numbered(failures))
            monitor.crash(fault.rank)
            continue
        sim.run(until=max(faults[0].time, sim.now) if faults else None,
                max_events=_DETECTION_CHUNK_EVENTS,
                stop=lambda: bool(monitor.pending_deaths) or job_complete())
        if sim.events_executed > _DETECTION_MAX_EVENTS:
            raise SimulationError(
                "detection-driven campaign exceeded its event budget: the "
                "job can neither finish nor recover (detector never "
                "fired? victim not monitored?)") from _first_failure(procs)


def _run_once(spec: CampaignSpec, faults_enabled: bool,
              obs: Optional[Observability] = None,
              detsan: Optional[DetSanRecorder] = None) -> RunOutcome:
    """Execute the campaign workload once, with or without faults.

    The one supervisor loop: spawn an incarnation, advance to the next
    death declaration, then recover — account the lost work, tear the
    job down, roll the vault back, pay the restart, and respawn from
    the last committed checkpoint — until an incarnation completes.
    With faults enabled and a
    :class:`~repro.health.monitor.DetectionSpec` set, a monitor declares
    the deaths; otherwise the oracle declares a node fault dead the
    instant it strikes.  The clean reference always runs oracle-free,
    which strengthens the bit-identity check — the detector may change
    *when* recovery happens, never *what* is computed.  ``detsan``
    attaches a determinism sanitizer to the run's simulator.
    """
    if obs is None:
        obs = NULL_OBS
    streams = RandomStreams(seed=spec.seed)
    sim = Simulator(obs=obs, detsan=detsan)
    topology = spec.topology()
    plan = build_fault_plan(
        topology, link_faults=spec.link_faults,
        drop_probability=spec.drop_probability,
        streams=streams) if faults_enabled else None
    # One fabric for the whole run: outage schedules, degraded-route
    # caches, and traffic counters span incarnations, as on a real
    # machine.  Each incarnation gets a fresh CommWorld so stale traffic
    # from a torn-down job can never match a restarted rank's receives.
    fabric = Fabric(sim, topology, get_interconnect(CAMPAIGN_INTERCONNECT),
                    fault_plan=plan)
    config = spec.comm_config()
    vault = CheckpointVault(spec.ranks)
    factory = get_kernel(spec.kernel)
    body_fn = factory(spec.ranks, streams, dict(spec.app_args))
    monitor: Optional[MembershipMonitor] = None
    if faults_enabled and spec.detection is not None:
        monitor = build_monitor(sim, fabric, spec.ranks,
                                spec=spec.detection, streams=streams)
        monitor.start()

    # Scheduled node faults yet to strike, soonest first; the death
    # sources below pop each one as it strikes.
    faults = (sorted(spec.node_faults, key=lambda f: (f.time, f.rank))
              if faults_enabled else [])
    fault_trace: List[Tuple[float, int, Optional[int]]] = []
    lost_work = 0.0
    recovery = 0.0
    incarnations = 0
    worlds: List[CommWorld] = []
    finished_at = [float("nan")] * spec.ranks
    answers: List[Any] = [None] * spec.ranks

    def rank_body(comm: Communicator, ckpt: RankCheckpoint):
        result = yield from body_fn(comm, ckpt)
        finished_at[comm.rank] = sim.now
        answers[comm.rank] = result
        return result

    while True:
        incarnations += 1
        incarnation_start = sim.now
        inc_span = obs.span("campaign.incarnation", track="campaign",
                            index=incarnations)
        world = CommWorld(sim, fabric, config=config, streams=streams)
        worlds.append(world)
        procs: List[Process] = []
        for rank in range(spec.ranks):
            comm = world.communicator(rank)
            ckpt = RankCheckpoint(vault, comm,
                                  spec.checkpoint_write_seconds,
                                  spec.checkpoint_every)
            process = sim.process(rank_body(comm, ckpt),
                                  name=f"rank{rank}.{incarnations}")
            process.defused = True
            procs.append(process)

        if monitor is None:
            deaths = _oracle_deaths(sim, obs, procs, faults)
        else:
            deaths = _detected_deaths(sim, obs, monitor, procs, faults,
                                      len(fault_trace))
        if not deaths:
            inc_span.close()
            break

        # Recover, whether the declaration is true or a partition's lie.
        victim = deaths[0].node
        declared_at = sim.now
        committed = vault.latest
        # Work lost = progress made *this incarnation* past the last
        # committed cut (a commit from a previous incarnation cannot
        # move the base before this incarnation even started).
        last_commit = vault.last_commit_time
        base = incarnation_start
        if last_commit is not None and last_commit > base:
            base = last_commit
        lost_work += sim.now - base
        if monitor is not None:
            obs.instant("campaign.death_detected", track="campaign",
                        rank=victim, false=deaths[0].false_positive)
        obs.add_span("campaign.lost_work", base, sim.now,
                     track="campaign", rank=victim)
        for record in deaths:
            world.fail_rank(record.node)
        # Survivors of the same-timestamp no-op rule get a second,
        # always-landing interrupt once due wakeups have fired.
        for _ in range(2):
            _teardown(procs, victim, len(fault_trace))
            sim.run(until=sim.now)
        vault.rollback()
        fault_trace.append((declared_at, victim,
                            committed[0] if committed is not None else None))
        if monitor is not None:
            for record in deaths:
                monitor.repair(record.node)
        inc_span.set(faulted=True, victim=victim).close()
        recovery += spec.restart_seconds
        obs.add_span("campaign.restart", sim.now,
                     sim.now + spec.restart_seconds, track="campaign")
        sim.run(until=sim.now + spec.restart_seconds)
        if monitor is not None:
            for record in deaths:
                monitor.restore(record.node)

    if monitor is not None:
        # Quiesce the monitor so its spans close (double pass for the
        # same-timestamp no-op rule, as at teardown).
        for _ in range(2):
            monitor.stop()
            sim.run(until=sim.now)
    _verify_procs(procs)
    # Deterministic teardown of abandoned helpers (suspended receives
    # from torn-down incarnations): their spans must close here, not
    # whenever the garbage collector reaps the generators.
    sim.quiesce()

    elapsed = max(finished_at)
    counters = _collect_counters(plan)
    comm_stats = _collect_comm_stats(worlds)
    _publish_run_metrics(obs, incarnations, lost_work, recovery, elapsed,
                         comm_stats, counters)
    if monitor is not None:
        monitor.publish(obs)
    return RunOutcome(
        elapsed=elapsed,
        answers=tuple(answers),
        incarnations=incarnations,
        commits=vault.commits,
        fault_trace=tuple(fault_trace),
        lost_work_seconds=lost_work,
        recovery_seconds=recovery,
        comm_stats=comm_stats,
        fabric_counters=counters,
        detection=None if monitor is None else monitor.outcome(),
    )


def run_workload(spec: CampaignSpec, *, faults_enabled: bool = True,
                 obs: Optional[Observability] = None,
                 detsan: Optional[DetSanRecorder] = None) -> RunOutcome:
    """Execute the campaign workload once (no clean-reference replay).

    The single-run entry point the ``trace`` and ``detsan`` CLIs use:
    pass an :class:`~repro.obs.Observability` to capture spans and
    metrics for export, and/or a
    :class:`~repro.sim.detsan.DetSanRecorder` to sanitize the run,
    without paying for the verification rerun.
    """
    return _run_once(spec, faults_enabled=faults_enabled, obs=obs,
                     detsan=detsan)


def run_campaign(spec: CampaignSpec,
                 obs: Optional[Observability] = None) -> CampaignReport:
    """Run the faulty campaign, then the failure-free reference, and
    verify the answers are bit-identical.

    Both runs use the same seed, so they derive identical inputs; the
    fault machinery must therefore change *when* things happen, never
    *what* is computed — which is exactly what the comparison checks.
    ``obs`` instruments only the faulty run, so the answers_match verdict
    doubles as proof that observability never perturbs the simulation.
    """
    faulty = _run_once(spec, faults_enabled=True, obs=obs)
    clean = _run_once(spec, faults_enabled=False)
    match = all(
        _answers_equal(c, f)
        for c, f in zip(clean.answers, faulty.answers)
    )
    return CampaignReport(spec=spec, clean=clean, faulty=faulty,
                          answers_match=match)
