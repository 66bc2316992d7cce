"""Degraded-mode batch scheduling: detection latency meets the queue.

:class:`~repro.scheduler.faults.FaultyBatchSimulator` is *oracular*: a
failure kills its job the same instant it strikes.  Real clusters learn
about failures from a detector, so between the strike and the
declaration the job's nodes are **zombies** — occupied, billed, doing
no useful work — and only at detection does the scheduler kill, requeue
(after a backoff), dispatch repair, and activate a spare.
:class:`DegradedBatchSimulator` is the shared event loop of
:mod:`repro.scheduler.simulator`, which documents that model, with every
knob; zero detection, no spares and no drains reproduce the oracle.

What this layer adds is node identity.  The loop counts slots; its node
log, kept here, assigns ids deterministically (strikes and drains take
the lowest in-service id, activations the lowest spare id) and drives a
per-node :class:`~repro.health.state.Membership` machine purely for the
health log — the schedule never depends on which id failed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.health.spares import SparePool
from repro.health.state import Membership, NodeHealthState
from repro.obs import NULL_OBS, Observability
from repro.scheduler.job import Job
from repro.scheduler.policies import SchedulingPolicy
from repro.scheduler.simulator import (
    BatchLoop,
    DrainWindow,
    FaultyScheduleResult,
)
from repro.sim.rng import RandomStreams

__all__ = [
    "DegradedBatchSimulator",
    "DegradedScheduleResult",
    "DrainWindow",
]

#: Detected and oracle failure runs report through one result type.
DegradedScheduleResult = FaultyScheduleResult


class _NodeIdentities:
    """The loop's node log: names its anonymous slots, logs their health."""

    def __init__(self, total_nodes: int, spare_nodes: int) -> None:
        physical = total_nodes + spare_nodes
        self.membership = Membership(physical)
        self.pool = SparePool(range(total_nodes, physical))
        self.in_service = list(range(total_nodes))
        self.failed: Dict[int, int] = {}         # tag -> struck node
        self.drained: Dict[int, List[int]] = {}  # window -> its nodes

    def __call__(self, event: str, key: int, now: float, count: int) -> None:
        move = self.membership.transition
        if event == "strike":
            node = self.failed[key] = self.in_service.pop(0)
            move(node, NodeHealthState.SUSPECTED, now, "missed-heartbeats")
        elif event == "detect":
            node = self.failed[key]
            move(node, NodeHealthState.DEAD, now, "silence-confirmed")
            move(node, NodeHealthState.REPAIRING, now, "repair")
            if count:
                self._return(self.pool.activate())
        elif event == "repair":
            node = self.failed.pop(key)
            move(node, NodeHealthState.HEALTHY, now, "repaired")
            if count:
                self.pool.refill(node)
            else:
                self._return(node)
        elif event == "drain":
            self.drained[key] = taken = self.in_service[:count]
            del self.in_service[:count]
            for node in taken:
                move(node, NodeHealthState.DRAINING, now, "drain")
        else:  # "undrain"
            for node in self.drained.pop(key):
                move(node, NodeHealthState.HEALTHY, now, "undrain")
                self._return(node)

    def _return(self, node: Optional[int]) -> None:
        assert node is not None, "the loop's spare count and pool disagree"
        self.in_service.append(node)
        self.in_service.sort()


class DegradedBatchSimulator(BatchLoop):
    """Batch simulator with detection latency, spares, and drains.

    Parameters
    ----------
    total_nodes, policy:
        Schedulable capacity and policy, as in the oracle simulators.
    node_mtbf_seconds:
        Per-node exponential MTBF; ``math.inf`` disables failures.
    detection_seconds:
        Latency between a failure striking and the scheduler learning
        of it (a heartbeat detector's dead-timeout).
    repair_seconds:
        Repair duration, measured from *detection* — repair cannot be
        dispatched for a failure nobody has noticed.
    spare_nodes:
        Healthy nodes held outside schedulable capacity; a detected
        failure activates one immediately if the pool is non-empty.
    requeue_backoff_seconds:
        Delay between detection and the killed job re-entering the
        queue (zero requeues at the detection instant).
    checkpoint_interval:
        As in the oracle simulator; progress is measured to the strike,
        not to detection — zombie time is pure waste.
    drains:
        :class:`DrainWindow` maintenance schedule.
    """

    def __init__(self, total_nodes: int, policy: SchedulingPolicy,
                 node_mtbf_seconds: float,
                 detection_seconds: float = 0.0,
                 repair_seconds: float = 1800.0,
                 spare_nodes: int = 0,
                 requeue_backoff_seconds: float = 0.0,
                 checkpoint_interval: Optional[float] = None,
                 drains: Sequence[DrainWindow] = (),
                 streams: Optional[RandomStreams] = None,
                 obs: Optional[Observability] = None) -> None:
        super().__init__(
            total_nodes, policy, node_mtbf_seconds, detection_seconds,
            repair_seconds, spare_nodes, requeue_backoff_seconds,
            checkpoint_interval, drains,
            streams if streams is not None else RandomStreams(0))
        self.obs = obs if obs is not None else NULL_OBS

    def run(self, jobs: Sequence[Job],
            max_virtual_seconds: float = 10 * 365.25 * 86400.0
            ) -> DegradedScheduleResult:
        """Replay ``jobs`` to completion under detected failures.

        ``max_virtual_seconds`` guards pathological configurations
        (nothing ever finishes) — exceeding it raises rather than
        looping forever.  ``obs`` receives only the ``sched.health.*``
        gauges, at the end of the run.
        """
        log = _NodeIdentities(self.total_nodes, self.spare_nodes)
        result = self._replay(jobs, max_virtual_seconds, node_log=log)[0]
        result.health_log = tuple(
            event.line() for event in log.membership.events)
        if self.obs.enabled:
            for name in ("availability", "zombie_node_seconds",
                         "spare_activations", "min_spare_depth",
                         "requeues"):
                self.obs.metrics.gauge(f"sched.health.{name}").set(
                    float(getattr(result, name)))
        return result
