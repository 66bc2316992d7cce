"""Resource management: batch scheduling of parallel jobs.

The keynote: "software tools to manage them will take on new
responsibilities alleviating much of the burden experienced by today's
practitioners" — resource management is named explicitly.  This package
provides the space-sharing batch model the 2002 literature studied:

* :class:`Job` / :class:`JobRecord` — rigid parallel jobs with user
  runtime estimates;
* :class:`WorkloadGenerator` — Feitelson-style synthetic workloads
  (Poisson arrivals, lognormal runtimes, power-of-two-biased widths,
  overestimated runtimes);
* policies — FCFS, SJF, EASY backfilling, conservative backfilling;
* :class:`BatchSimulator` — the event-driven cluster that runs a workload
  under a policy; :class:`FaultyBatchSimulator` (and
  :class:`~repro.health.DegradedBatchSimulator` one layer up) run the
  same event loop with node failures;
* :func:`evaluate_schedule` — utilization, wait, bounded slowdown.
"""

from repro.scheduler.job import Job, JobRecord, JobState, scale_jobs
from repro.scheduler.workload import WorkloadGenerator, WorkloadParams
from repro.scheduler.policies import (
    ConservativeBackfill,
    EasyBackfill,
    FcfsPolicy,
    SchedulingPolicy,
    SjfPolicy,
    get_policy,
)
from repro.scheduler.simulator import BatchSimulator, ScheduleResult
from repro.scheduler.metrics import ScheduleMetrics, evaluate_schedule
from repro.scheduler.faults import FaultyBatchSimulator, FaultyScheduleResult
from repro.scheduler.swf import dump_swf, format_swf, load_swf, parse_swf

__all__ = [
    "BatchSimulator",
    "FaultyBatchSimulator",
    "FaultyScheduleResult",
    "ConservativeBackfill",
    "EasyBackfill",
    "FcfsPolicy",
    "Job",
    "JobRecord",
    "JobState",
    "ScheduleMetrics",
    "ScheduleResult",
    "SchedulingPolicy",
    "SjfPolicy",
    "WorkloadGenerator",
    "WorkloadParams",
    "dump_swf",
    "evaluate_schedule",
    "format_swf",
    "load_swf",
    "parse_swf",
    "scale_jobs",
    "get_policy",
]
