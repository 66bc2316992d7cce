"""Fault-aware batch operation: failures meet the scheduler.

The keynote's two system-software threads — resource management and fault
recovery — are one problem in production: node failures kill running jobs,
killed jobs re-enter the queue, and the machine runs degraded while nodes
repair.  :class:`FaultyBatchSimulator` is the shared event loop of
:mod:`repro.scheduler.simulator` with *oracular* failures: a failure kills
its job the instant it strikes, and killed jobs restart from scratch or
from their last checkpoint.  Outputs add *goodput* (node-seconds of work
that counted toward a completion) and *lost work* to the usual metrics,
so bench E15 can show what recovery software is worth in delivered
machine.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.scheduler.job import Job
from repro.scheduler.policies import SchedulingPolicy
from repro.scheduler.simulator import BatchLoop, FaultyScheduleResult
from repro.sim.rng import RandomStreams

__all__ = ["FaultyBatchSimulator", "FaultyScheduleResult"]


class FaultyBatchSimulator(BatchLoop):
    """Batch simulator with node failures, repair, and checkpoint restart.

    Parameters
    ----------
    total_nodes, policy:
        As in :class:`~repro.scheduler.simulator.BatchSimulator`.
    node_mtbf_seconds:
        Per-node exponential MTBF; ``math.inf`` disables failures.
    repair_seconds:
        Time a failed node is out of service.
    checkpoint_interval:
        ``None`` restarts killed jobs from scratch; a positive value
        restarts them from the last multiple of the interval.  Checkpoint
        write overhead is assumed folded into the runtime (jobs of the
        workload model are wall-clock observations).
    """

    def __init__(self, total_nodes: int, policy: SchedulingPolicy,
                 node_mtbf_seconds: float, repair_seconds: float = 1800.0,
                 checkpoint_interval: Optional[float] = None,
                 streams: Optional[RandomStreams] = None) -> None:
        super().__init__(
            total_nodes, policy, node_mtbf_seconds,
            repair_seconds=repair_seconds,
            checkpoint_interval=checkpoint_interval,
            streams=streams if streams is not None else RandomStreams(0))

    def run(self, jobs: Sequence[Job],
            max_virtual_seconds: float = 10 * 365.25 * 86400.0
            ) -> FaultyScheduleResult:
        """Replay ``jobs`` to completion under failures.

        ``max_virtual_seconds`` guards against pathological configurations
        (MTBF shorter than every job: nothing ever finishes) — exceeding
        it raises rather than looping forever.
        """
        return self._replay(jobs, max_virtual_seconds)[0]
