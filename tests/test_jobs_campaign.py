"""Campaign spec validation, report plumbing, the SWF-trace bridge, the
service's timing relations, and the shared fault-plan builder."""

import pytest

from repro.fault import LinkFaultSpec, build_fault_plan
from repro.fault.campaign import CAMPAIGN_INTERCONNECT
from repro.jobs import (
    DuplicateSubmitSpec,
    JobRequest,
    JobsCampaignSpec,
    ServiceConfig,
    SupervisorCrashSpec,
    WorkerCrashSpec,
    WorkerStallSpec,
    requests_from_jobs,
    run_jobs_campaign,
)
from repro.jobs.service import (
    LEASE_SECONDS,
    MESSAGE_BYTES,
    RENEW_EVERY,
    TICK_INTERVAL,
    WRITE_RETRY_SECONDS,
)
from repro.network import Fabric, get_interconnect
from repro.scheduler import Job
from repro.sim import Simulator
from repro.sim.rng import RandomStreams

REQS = (JobRequest(tenant="t", key="a"),
        JobRequest(tenant="t", key="b"))


class TestSpecValidation:
    def test_needs_requests(self):
        with pytest.raises(ValueError, match="at least one request"):
            JobsCampaignSpec(requests=())

    def test_crash_host_must_exist(self):
        with pytest.raises(ValueError, match="total hosts"):
            JobsCampaignSpec(
                requests=REQS,
                service=ServiceConfig(workers=2, spare_workers=0),
                worker_crashes=(WorkerCrashSpec(time=1e-3, host=5),))

    def test_crash_host_cannot_be_supervisor(self):
        with pytest.raises(ValueError, match="not the"):
            WorkerCrashSpec(time=1e-3, host=0)

    def test_stall_host_must_exist(self):
        with pytest.raises(ValueError, match="total hosts"):
            JobsCampaignSpec(
                requests=REQS,
                service=ServiceConfig(workers=1, spare_workers=0),
                worker_stalls=(WorkerStallSpec(time=1e-3, host=3,
                                               duration=1e-3),))

    def test_duplicate_index_must_exist(self):
        with pytest.raises(ValueError, match="requests"):
            JobsCampaignSpec(
                requests=REQS,
                duplicate_submits=(DuplicateSubmitSpec(time=0.0,
                                                       index=2),))

    def test_supervisor_outages_cannot_overlap(self):
        with pytest.raises(ValueError, match="overlapping"):
            JobsCampaignSpec(
                requests=REQS,
                supervisor_crashes=(
                    SupervisorCrashSpec(time=1e-3, restart_after=5e-3),
                    SupervisorCrashSpec(time=2e-3, restart_after=1e-3)))

    def test_actions_past_horizon_fail_loudly(self):
        spec = JobsCampaignSpec(
            requests=REQS,
            worker_crashes=(WorkerCrashSpec(time=0.5, host=1),))
        with pytest.raises(ValueError, match="horizon"):
            run_jobs_campaign(spec)

    def test_unknown_kernel_fails_at_submission(self):
        spec = JobsCampaignSpec(
            requests=(JobRequest(tenant="t", key="a",
                                 kernel="no-such-kernel"),))
        with pytest.raises(KeyError, match="no-such-kernel"):
            run_jobs_campaign(spec)


class TestServiceTiming:
    def test_timing_keeps_leases_alive_and_writes_unrepeated(self):
        """A lease outlives a renewal period, so a working worker
        renews before its lease expires; and a write waits out a
        supervisor tick plus a round trip on the campaign fabric before
        it is resent, so an answered write is not sent twice."""
        assert LEASE_SECONDS > RENEW_EVERY
        spec = JobsCampaignSpec(requests=REQS)
        fabric = Fabric(Simulator(), spec.topology(),
                        get_interconnect(CAMPAIGN_INTERCONNECT))
        round_trip = max(
            fabric.uncontended_time(worker, 0, MESSAGE_BYTES)
            + fabric.uncontended_time(0, worker, MESSAGE_BYTES)
            for worker in range(1, spec.service.total_hosts))
        assert WRITE_RETRY_SECONDS > TICK_INTERVAL + round_trip


class TestServiceConfigValidation:
    def test_monitor_must_live_on_supervisor_host(self):
        from repro.health import DetectionSpec
        with pytest.raises(ValueError, match="monitor host"):
            ServiceConfig(detection=DetectionSpec(monitor_host=2))

    def test_total_hosts_counts_supervisor(self):
        config = ServiceConfig(workers=3, spare_workers=2)
        assert config.total_hosts == 6


class TestWithoutFaults:
    def test_clears_every_fault_class(self):
        spec = JobsCampaignSpec(
            requests=REQS, name="noisy",
            worker_crashes=(WorkerCrashSpec(time=1e-3, host=1),),
            worker_stalls=(WorkerStallSpec(time=1e-3, host=1,
                                           duration=1e-3),),
            supervisor_crashes=(SupervisorCrashSpec(time=1e-3,
                                                    restart_after=1e-3),),
            duplicate_submits=(DuplicateSubmitSpec(time=0.0, index=0),),
            drop_probability=0.1)
        clean = spec.without_faults()
        assert clean.worker_crashes == ()
        assert clean.worker_stalls == ()
        assert clean.supervisor_crashes == ()
        assert clean.link_faults == ()
        assert clean.drop_probability == 0.0
        # Duplicates are client behavior, not faults: they stay.
        assert clean.duplicate_submits == spec.duplicate_submits
        assert clean.name == "noisy-clean"

    def test_topology_covers_all_hosts(self):
        spec = JobsCampaignSpec(
            requests=REQS,
            service=ServiceConfig(workers=4, spare_workers=3))
        assert spec.topology().hosts >= 8


class TestFaultPlanBuilder:
    def test_no_faults_means_no_plan(self):
        spec = JobsCampaignSpec(requests=REQS)
        assert build_fault_plan(spec.topology()) is None

    def test_unknown_link_fails_loudly(self):
        spec = JobsCampaignSpec(requests=REQS)
        with pytest.raises(ValueError, match="no such link"):
            build_fault_plan(
                spec.topology(),
                link_faults=(LinkFaultSpec(start=0.0, duration=1.0,
                                           a=("h", 0), b=("h", 99)),))

    def test_probabilistic_faults_need_streams(self):
        spec = JobsCampaignSpec(requests=REQS)
        with pytest.raises(ValueError, match="RandomStreams"):
            build_fault_plan(spec.topology(), drop_probability=0.5)
        plan = build_fault_plan(spec.topology(), drop_probability=0.5,
                                streams=RandomStreams(seed=1))
        assert plan is not None

    def test_declared_link_fault_builds_a_plan(self):
        spec = JobsCampaignSpec(requests=REQS)
        topology = spec.topology()
        leaf = next(iter(topology.graph.neighbors(("h", 0))))
        plan = build_fault_plan(
            topology,
            link_faults=(LinkFaultSpec(start=0.0, duration=1.0,
                                       a=("h", 0), b=leaf),))
        assert plan is not None


class TestRequestsFromJobs:
    def test_trace_jobs_become_digest_requests_at_trace_times(self):
        """One ``swf`` tenant request per trace job, keyed by the job
        id, with the trace shape as payload and the job's own work and
        submit times (callers scale the trace first)."""
        trace = (Job(job_id=3, submit_time=120.0, nodes=8,
                     runtime=3600.0, estimate=7200.0),
                 Job(job_id=11, submit_time=125.5, nodes=1,
                     runtime=42.0, estimate=60.0))
        first, second = requests_from_jobs(trace)
        assert (first.tenant, first.key, first.kernel) == (
            "swf", "swf-3", "digest")
        assert first.payload == (("job", 3), ("nodes", 8))
        assert (first.work_seconds, first.submit_time) == (3600.0, 120.0)
        assert (second.tenant, second.key, second.kernel) == (
            "swf", "swf-11", "digest")
        assert second.payload == (("job", 11), ("nodes", 1))
        assert (second.work_seconds, second.submit_time) == (42.0, 125.5)


class TestReport:
    def test_summary_mentions_the_load_bearing_numbers(self):
        report = run_jobs_campaign(
            JobsCampaignSpec(requests=REQS, name="demo"))
        text = report.summary()
        assert "'demo'" in text
        assert "2 completed" in text
        assert "violations=0" in text
        assert report.clean
