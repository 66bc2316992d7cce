"""Input and policy-contract checks that every batch simulator shares."""

import pytest

from repro.health import DegradedBatchSimulator
from repro.scheduler import (
    BatchSimulator,
    FaultyBatchSimulator,
    FcfsPolicy,
    Job,
    SchedulingPolicy,
)
from repro.sim import RandomStreams

#: Each simulator on a small machine; failures are rare enough (one per
#: ~8 years of machine time) that none strikes these short workloads.
SIMULATORS = {
    "batch": lambda nodes, policy: BatchSimulator(nodes, policy),
    "faulty": lambda nodes, policy: FaultyBatchSimulator(
        nodes, policy, node_mtbf_seconds=1e9, streams=RandomStreams(1)),
    "degraded": lambda nodes, policy: DegradedBatchSimulator(
        nodes, policy, node_mtbf_seconds=1e9, detection_seconds=60.0,
        spare_nodes=1, streams=RandomStreams(1)),
}


def job(job_id, submit=0.0, nodes=1, runtime=10.0):
    return Job(job_id, submit, nodes=nodes, runtime=runtime,
               estimate=runtime)


class StartsHeadTwice(SchedulingPolicy):
    """Broken: returns the queue head twice."""

    name = "twice"

    def select(self, now, queue, running, free_nodes, total_nodes):
        return queue[:1] * 2


class IgnoresCapacity(SchedulingPolicy):
    """Broken: starts the whole queue whether or not it fits."""

    name = "greedy"

    def select(self, now, queue, running, free_nodes, total_nodes):
        return list(queue)


@pytest.mark.parametrize("kind", sorted(SIMULATORS))
def test_duplicate_job_ids_are_rejected(kind):
    jobs = [job(7), job(3, submit=1.0), job(7, submit=5.0, nodes=2)]
    with pytest.raises(ValueError, match="duplicate job id 7"):
        SIMULATORS[kind](4, FcfsPolicy()).run(jobs)


@pytest.mark.parametrize("kind", sorted(SIMULATORS))
def test_starting_a_job_twice_is_a_policy_bug(kind):
    with pytest.raises(RuntimeError,
                       match="policy twice started job 0 twice"):
        SIMULATORS[kind](4, StartsHeadTwice()).run([job(0)])


@pytest.mark.parametrize("kind", sorted(SIMULATORS))
def test_overcommitting_is_a_policy_bug(kind):
    jobs = [job(0, nodes=3), job(1, nodes=3)]
    with pytest.raises(RuntimeError,
                       match="policy greedy overcommitted: job 1 wants 3, "
                             "only 1 free"):
        SIMULATORS[kind](4, IgnoresCapacity()).run(jobs)


@pytest.mark.parametrize("kind", sorted(SIMULATORS))
def test_oversized_job_and_empty_workload_are_rejected(kind):
    with pytest.raises(ValueError, match="job 0 wants 8 nodes"):
        SIMULATORS[kind](4, FcfsPolicy()).run([job(0, nodes=8)])
    with pytest.raises(ValueError, match="no jobs"):
        SIMULATORS[kind](4, FcfsPolicy()).run([])
