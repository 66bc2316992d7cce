"""The batch-system event loop, shared by every batch simulator.

A dedicated event loop (timed events on a heap) rather than the
generator kernel: a scheduling experiment replays tens of thousands of
jobs where each event does a fixed small amount of work, and the policy
is re-invoked after every instant anyway — process machinery would add
cost and no fidelity.

Failures are optional and layered onto the plain space-sharing machine:

* nodes fail Poisson at the aggregate rate ``capacity / node_mtbf``; a
  strike lands on a busy node with probability busy/capacity, and then
  on a running job chosen with probability proportional to its width;
* the scheduler learns of a failure ``detection_seconds`` after it
  strikes.  Until then the struck job is a *zombie*: its nodes are
  occupied, do no useful work, and look to the policy like an ordinary
  running job.  At detection the job is killed, its progress up to the
  strike (rounded down to the last checkpoint) is credited, and it
  re-enters the queue ``requeue_backoff_seconds`` later;
* a failed slot is out of service for ``repair_seconds`` from
  detection, unless a spare (held outside schedulable capacity) takes
  its place; the repaired node then refills the spare pool;
* :class:`DrainWindow` maintenance takes only nodes that are free when
  it starts (unmet demand is counted, not forced);
* out-of-service and drained slots appear to the policy as width-1
  pseudo-jobs releasing at their estimated return, so backfill
  reservations account for them without policy-side special cases.

The simulators configure :class:`BatchLoop`: :class:`BatchSimulator`
never fails, :class:`~repro.scheduler.faults.FaultyBatchSimulator`
detects failures instantly and has no spares or drains, and
:class:`~repro.health.scheduling.DegradedBatchSimulator` uses every knob
and names the nodes through a :data:`NodeLog`.  The loop enforces node
conservation and that an attempt finishes exactly its remaining work
after it starts; FCFS-family ordering is checked by the policy tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs import NULL_OBS, Observability
from repro.scheduler.job import Job, JobRecord, JobState
from repro.scheduler.policies import SchedulingPolicy
from repro.sim.rng import RandomStreams

__all__ = [
    "BatchLoop",
    "BatchSimulator",
    "DrainWindow",
    "FaultyScheduleResult",
    "NodeLog",
    "ScheduleResult",
]

# Event kinds, in the order events at one instant are handled.
(_ARRIVAL, _FAILURE, _DETECT, _COMPLETION, _REPAIR, _DRAIN_START,
 _DRAIN_END, _REQUEUE) = range(8)

#: Receives ``(event, key, now, count)`` as nodes fail, return and
#: drain.  ``event`` is ``"strike"``, ``"detect"``, ``"repair"``,
#: ``"drain"`` or ``"undrain"``; ``key`` is the failure's tag or the drain
#: window's index; ``count`` is 1 when a spare took the failed slot at
#: detection, or the number of nodes a drain took.  The loop counts
#: slots and never names a node; a log may.
NodeLog = Callable[[str, int, float, int], None]


def _ignore(event: str, key: int, now: float, count: int) -> None:
    """The node log of runs that do not name nodes."""


def _submit_order(job: Job) -> Tuple[float, int]:
    return job.submit_time, job.job_id


@dataclass(frozen=True)
class DrainWindow:
    """Administratively drain ``nodes`` nodes over ``[start, end)``."""

    start: float
    end: float
    nodes: int = 1

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("need 0 <= start < end")
        if self.nodes < 1:
            raise ValueError("must drain at least one node")


@dataclass
class ScheduleResult:
    """Everything a workload run produced."""

    records: List[JobRecord]
    total_nodes: int
    #: Time the last job completed.
    makespan: float
    #: Time the first job was submitted (metrics measure from here).
    first_submit: float

    @property
    def horizon(self) -> float:
        """Virtual time from first submit to makespan."""
        return self.makespan - self.first_submit


@dataclass
class FaultyScheduleResult:
    """Outcome of a workload run under failures (oracle or detected)."""

    total_nodes: int
    makespan: float
    first_submit: float
    #: job_id -> (original submit, final completion) for finished jobs.
    completions: Dict[int, Tuple[float, float]]
    #: Node-seconds that contributed to a completed attempt.
    goodput_node_seconds: float = 0.0
    #: Node-seconds of killed work since the last checkpoint.
    lost_node_seconds: float = 0.0
    #: Node-seconds occupied by dead-but-undetected jobs.
    zombie_node_seconds: float = 0.0
    #: Slot-seconds removed from schedulable capacity (down + drained).
    degraded_node_seconds: float = 0.0
    failures: int = 0
    job_kills: int = 0
    requeues: int = 0
    spare_nodes: int = 0
    spare_activations: int = 0
    #: Drain demand that found no free node to take.
    drain_shortfall: int = 0
    min_spare_depth: int = 0
    #: Canonical membership event log (determinism checks).
    health_log: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def horizon(self) -> float:
        """Virtual time from first submit to makespan."""
        return self.makespan - self.first_submit

    @property
    def goodput_utilization(self) -> float:
        """Useful work over nominal capacity — the metric failures tax."""
        capacity = self.total_nodes * max(self.horizon, 1e-12)
        return min(1.0, self.goodput_node_seconds / capacity)

    @property
    def availability(self) -> float:
        """Fraction of slot-time in service.  Zombie slots count as up:
        the scheduler does not yet know they are wasted — the gap
        between availability and goodput is detection's bill."""
        capacity = self.total_nodes * max(self.horizon, 1e-12)
        return max(0.0, 1.0 - self.degraded_node_seconds / capacity)

    @property
    def waste_fraction(self) -> float:
        """(lost + zombie) over all expended node-seconds."""
        wasted = self.lost_node_seconds + self.zombie_node_seconds
        total = wasted + self.goodput_node_seconds
        return wasted / total if total > 0 else 0.0

    def mean_response(self) -> float:
        """Mean submit-to-final-completion time over finished jobs."""
        if not self.completions:
            raise ValueError("no completed jobs")
        return float(np.mean([end - submit for submit, end
                              in self.completions.values()]))


class _Attempt:
    """One attempt of a job on the machine; a restart is a new attempt."""

    __slots__ = ("job", "start_time", "work", "view")

    def __init__(self, job: Job, start_time: float, work: float) -> None:
        self.job = job
        self.start_time = start_time
        self.work = work  # left when this attempt started
        # (estimated end, width) for the policy, which sees estimates,
        # never runtimes; a restart's estimate shrinks in proportion.
        self.view = (start_time + job.estimate * (work / job.runtime),
                     job.nodes)


class BatchLoop:
    """The event loop and its knobs; the defaults switch failures off."""

    def __init__(self, total_nodes: int, policy: SchedulingPolicy,
                 node_mtbf_seconds: float = math.inf,
                 detection_seconds: float = 0.0,
                 repair_seconds: float = 0.0,
                 spare_nodes: int = 0,
                 requeue_backoff_seconds: float = 0.0,
                 checkpoint_interval: Optional[float] = None,
                 drains: Sequence[DrainWindow] = (),
                 streams: Optional[RandomStreams] = None) -> None:
        if total_nodes < 1:
            raise ValueError("total_nodes must be >= 1")
        if node_mtbf_seconds <= 0:
            raise ValueError("node MTBF must be positive")
        if detection_seconds < 0:
            raise ValueError("detection latency must be non-negative")
        if repair_seconds < 0:
            raise ValueError("repair time must be non-negative")
        if spare_nodes < 0:
            raise ValueError("spare_nodes must be >= 0")
        if requeue_backoff_seconds < 0:
            raise ValueError("requeue backoff must be non-negative")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.total_nodes = total_nodes
        self.policy = policy
        self.node_mtbf = node_mtbf_seconds
        self.detection_seconds = detection_seconds
        self.repair_seconds = repair_seconds
        self.spare_nodes = spare_nodes
        self.requeue_backoff = requeue_backoff_seconds
        self.checkpoint_interval = checkpoint_interval
        self.drains = tuple(sorted(drains, key=lambda d: (d.start, d.end)))
        #: ``None`` only when the loop never fails (and draws nothing).
        self.streams = streams

    def _replay(self, jobs: Sequence[Job],
                max_virtual_seconds: float = math.inf,
                obs: Observability = NULL_OBS, node_log: NodeLog = _ignore,
                ) -> Tuple[FaultyScheduleResult, Dict[int, float]]:
        """Run ``jobs`` to completion; also return each job's last start.

        ``obs`` receives a ``sched.start`` instant per start and the
        ``sched.*`` metrics.  An event past ``max_virtual_seconds``
        raises: a configuration in which nothing finishes would
        otherwise loop forever.
        """
        if not jobs:
            raise ValueError("no jobs to schedule")
        total = self.total_nodes
        by_id: Dict[int, Job] = {}
        for job in jobs:
            if job.nodes > total:
                raise ValueError(f"job {job.job_id} wants {job.nodes} "
                                 f"nodes; machine has {total}")
            if job.job_id in by_id:
                raise ValueError(f"duplicate job id {job.job_id}")
            by_id[job.job_id] = job
        policy = self.policy
        interval = self.checkpoint_interval
        result = FaultyScheduleResult(
            total_nodes=total, makespan=0.0,
            first_submit=min(job.submit_time for job in jobs),
            completions={}, spare_nodes=self.spare_nodes,
            min_spare_depth=self.spare_nodes)
        completions = result.completions

        events = [(job.submit_time, _ARRIVAL, job.job_id, 0) for job in jobs]
        heapify(events)
        rng = (self.streams.get("scheduler.failures")
               if self.streams is not None else None)
        failure_rate = total / self.node_mtbf

        def schedule_failure(after: float) -> None:
            assert rng is not None, "a failing loop needs streams"
            heappush(events, (after + float(rng.exponential(
                1 / failure_rate)), _FAILURE, -1, 0))

        if math.isfinite(self.node_mtbf):
            schedule_failure(0.0)
        for index, window in enumerate(self.drains):
            heappush(events, (window.start, _DRAIN_START, index, 0))

        queue: List[Job] = []
        running: Dict[int, _Attempt] = {}
        started_at: Dict[int, float] = {}
        # Bumped on every start and kill: a killed attempt's completion
        # event no longer matches.
        generations = dict.fromkeys(by_id, 0)
        remaining = {job.job_id: job.runtime for job in jobs}
        # Slot accounting:  free + busy + out + drained == total, where
        # busy counts running and zombie widths.  Spares live outside it.
        free = total
        out = drained = finished = next_tag = 0
        spares = self.spare_nodes
        # tag -> (attempt, strike time) of a dead-but-undetected job.
        zombies: Dict[int, Tuple[_Attempt, float]] = {}
        out_slots: Dict[int, float] = {}   # tag -> estimated release
        drain_taken: Dict[int, int] = {}   # window -> nodes taken
        # Availability integral: slot-seconds out of service.
        degraded = 0.0
        last_change = result.first_submit
        obs_on = obs.enabled

        def accumulate(now: float) -> None:
            nonlocal degraded, last_change
            degraded += (out + drained) * max(0.0, now - last_change)
            last_change = now

        def requeue(job: Job) -> None:
            queue.append(job)  # resubmitted, the queue reorders
            queue.sort(key=_submit_order)

        def node_event(now: float, kind: int, key: int, extra: int) -> None:
            """Everything but arrivals and completions."""
            nonlocal free, out, drained, spares, next_tag
            if kind == _FAILURE:
                assert rng is not None
                result.failures += 1
                # The rate follows nominal size; strikes on slots already
                # out are absorbed below.
                schedule_failure(now)
                # Known defect, kept for byte identity: busy counts zombie
                # slots, but the victim is drawn from live jobs only, so a
                # strike on a zombie's node kills a live job instead.
                busy = total - free - out - drained
                if rng.random() < busy / total and running:
                    widths = np.array([a.job.nodes
                                       for a in running.values()],
                                      dtype=float)
                    victim = list(running)[int(
                        rng.choice(len(widths), p=widths / widths.sum()))]
                    # The job is dead now, even though nobody knows yet.
                    generations[victim] += 1
                    next_tag += 1
                    zombies[next_tag] = (running.pop(victim), now)
                else:
                    if free <= 0:
                        return  # every idle slot is already out
                    accumulate(now)
                    free -= 1
                    out += 1
                    next_tag += 1
                    out_slots[next_tag] = (now + self.detection_seconds
                                           + self.repair_seconds)
                node_log("strike", next_tag, now, 0)
                heappush(events, (now + self.detection_seconds, _DETECT,
                                  next_tag, 0))
            elif kind == _DETECT:
                spare = spares > 0
                if spare:
                    spares -= 1
                    result.spare_activations += 1
                    result.min_spare_depth = min(result.min_spare_depth,
                                                 spares)
                node_log("detect", key, now, spare)
                release = now + self.repair_seconds
                zombie = zombies.pop(key, None)
                if zombie is not None:
                    # The job dies only now; its slots were busy (and
                    # wasted) for the whole detection window, and its
                    # progress is clocked at the strike.
                    attempt, struck_at = zombie
                    job, work = attempt.job, attempt.work
                    free += job.nodes - 1
                    result.zombie_node_seconds += (job.nodes
                                                   * (now - struck_at))
                    elapsed = struck_at - attempt.start_time
                    durable = 0.0 if interval is None else min(
                        math.floor(elapsed / interval) * interval, work)
                    lost = min(elapsed, work) - durable
                    result.lost_node_seconds += max(0.0, lost) * job.nodes
                    result.goodput_node_seconds += durable * job.nodes
                    remaining[job.job_id] = max(1e-9, work - durable)
                    result.job_kills += 1
                    result.requeues += 1
                    if self.requeue_backoff > 0:
                        heappush(events, (now + self.requeue_backoff,
                                          _REQUEUE, job.job_id, 0))
                    else:
                        requeue(job)
                    if spare:
                        free += 1  # the spare takes the failed slot now
                    else:
                        accumulate(now)
                        out += 1
                        out_slots[key] = release
                elif spare:  # idle strike: its slot went out at the strike
                    accumulate(now)
                    out -= 1
                    free += 1
                    del out_slots[key]
                else:
                    out_slots[key] = release  # the real estimate now
                heappush(events, (release, _REPAIR, key, int(spare)))
            elif kind == _REPAIR:
                node_log("repair", key, now, extra)
                if extra:
                    spares += 1
                else:
                    accumulate(now)
                    out -= 1
                    free += 1
                    del out_slots[key]
            elif kind == _DRAIN_START:
                window = self.drains[key]
                take = min(free, window.nodes)
                result.drain_shortfall += window.nodes - take
                drain_taken[key] = take
                if take:
                    accumulate(now)
                    free -= take
                    drained += take
                    node_log("drain", key, now, take)
                heappush(events, (window.end, _DRAIN_END, key, 0))
            elif kind == _DRAIN_END:
                take = drain_taken.pop(key)
                if take:
                    accumulate(now)
                    drained -= take
                    free += take
                    node_log("undrain", key, now, take)
            else:  # _REQUEUE
                requeue(by_id[key])

        while events and finished < len(jobs):
            now = events[0][0]
            if now > max_virtual_seconds:
                raise RuntimeError(
                    "virtual-time guard exceeded: with this failure "
                    "configuration the workload cannot drain")
            # Handle every event at this instant before the policy runs:
            # a completion and an arrival at one instant must both be
            # visible to it.
            while events and events[0][0] == now:
                _now, kind, key, extra = heappop(events)
                if kind == _ARRIVAL:
                    queue.append(by_id[key])
                elif kind == _COMPLETION:
                    if extra != generations[key]:
                        continue  # stale: this attempt was killed
                    attempt = running.pop(key)
                    job = attempt.job
                    free += job.nodes
                    finished += 1
                    completions[key] = (job.submit_time, now)
                    # Only this attempt's work: the durable progress of
                    # killed attempts was credited at the kill.
                    result.goodput_node_seconds += attempt.work * job.nodes
                    result.makespan = max(result.makespan, now)
                    if obs_on:
                        obs.metrics.counter("sched.completions").inc()
                else:
                    node_event(now, kind, key, extra)

            # Scheduling pass.  Zombies look like running jobs (nobody
            # knows yet); out and drained slots are width-1 pseudo-jobs.
            view = [attempt.view for attempt in running.values()]
            if zombies or out_slots or drain_taken:
                view += [attempt.view for attempt, _ in zombies.values()]
                view += [(release, 1) for release in out_slots.values()]
                for index, take in drain_taken.items():
                    view += [(self.drains[index].end, 1)] * take
            starts = policy.select(now, list(queue), view, free, total)
            if starts:
                started: Set[int] = set()
                for job in starts:
                    job_id = job.job_id
                    if job_id in started:
                        raise RuntimeError(f"policy {policy.name} started "
                                           f"job {job_id} twice")
                    if job.nodes > free:
                        raise RuntimeError(
                            f"policy {policy.name} overcommitted: job "
                            f"{job_id} wants {job.nodes}, only {free} free")
                    started.add(job_id)
                    free -= job.nodes
                    generations[job_id] += 1
                    work = remaining[job_id]
                    running[job_id] = _Attempt(job, now, work)
                    started_at[job_id] = now
                    heappush(events, (now + work, _COMPLETION, job_id,
                                      generations[job_id]))
                    if obs_on:
                        obs.instant("sched.start", track="scheduler",
                                    time=now, job=job_id, nodes=job.nodes)
                        obs.metrics.counter("sched.starts").inc()
                        obs.metrics.histogram("sched.wait_seconds").observe(
                            now - job.submit_time)
                queue = [j for j in queue if j.job_id not in started]
            if obs_on:
                obs.metrics.gauge("sched.free_nodes").set(float(free))
                obs.metrics.gauge("sched.queue_depth").set(
                    float(len(queue)))

        if finished < len(jobs):
            raise RuntimeError(f"{len(jobs) - finished} jobs never "
                               "finished (event queue drained early)")
        accumulate(result.makespan)
        result.degraded_node_seconds = degraded
        return result, started_at


class BatchSimulator(BatchLoop):
    """Event-driven space-sharing cluster."""

    def __init__(self, total_nodes: int, policy: SchedulingPolicy,
                 obs: Optional[Observability] = None) -> None:
        super().__init__(total_nodes, policy)
        # This loop has no Simulator clock to bind, so all observability
        # records carry explicit times; instants and counters only (jobs
        # overlap freely, so nested spans would misrender on one track).
        self.obs = obs if obs is not None else NULL_OBS

    def run(self, jobs: Sequence[Job]) -> ScheduleResult:
        """Replay ``jobs`` (any order; they are heap-ordered by submit)."""
        outcome, started_at = self._replay(jobs, obs=self.obs)
        records = [
            JobRecord(job=job, state=JobState.FINISHED,
                      start_time=started_at[job.job_id],
                      end_time=outcome.completions[job.job_id][1])
            for job in sorted(jobs, key=_submit_order)
        ]
        if self.obs.enabled:
            self.obs.add_span("sched.run", outcome.first_submit,
                              outcome.makespan, track="scheduler",
                              jobs=len(records))
            self.obs.metrics.gauge("sched.makespan").set(outcome.makespan)
        return ScheduleResult(records=records, total_nodes=self.total_nodes,
                              makespan=outcome.makespan,
                              first_submit=outcome.first_submit)
