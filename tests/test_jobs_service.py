"""End-to-end job service under fault campaigns.

Each test drives a real :class:`~repro.jobs.service.JobService` — real
fabric transfers, real heartbeat detection — through one engineered
race, then asserts both the *outcome* (jobs complete exactly once) and
the *proof* (the log replay checker finds no violations).
"""

from repro.fault import LinkFaultSpec
from repro.health import DetectionSpec
from repro.jobs import (
    DuplicateSubmitSpec,
    JobRequest,
    JobsCampaignSpec,
    ServiceConfig,
    SupervisorCrashSpec,
    WorkerCrashSpec,
    WorkerStallSpec,
    prove_determinism,
    run_jobs_campaign,
)
from repro.obs import Observability
from repro.sim import DetSanRecorder

FAST_DETECTION = DetectionSpec(detector="fixed", heartbeat_interval=1e-4,
                               suspect_after=3e-4, dead_after=6e-4,
                               monitor_host=0)


def requests(count, work=1e-3, stagger=0.0, kernel="sum"):
    """``count`` sum-kernel submissions with payload value = index."""
    return tuple(
        JobRequest(tenant=f"t{i % 3}", key=f"job-{i}", kernel=kernel,
                   payload=(("x", i),), work_seconds=work,
                   submit_time=i * stagger)
        for i in range(count))


def assert_exactly_once(report):
    """The at-most-once core: replay-clean, every job closed, and the
    jobs that completed did so exactly once."""
    assert report.violations == ()
    assert report.unfinished == 0
    assert report.completed + report.failed == report.jobs


class TestHappyPath:
    def test_all_jobs_complete_without_faults(self):
        report = run_jobs_campaign(
            JobsCampaignSpec(requests=requests(6)))
        assert_exactly_once(report)
        assert report.completed == 6
        assert report.failed == 0
        assert report.fencing_rejections == 0
        assert report.goodput > 0

    def test_effect_values_come_from_the_kernel(self):
        report = run_jobs_campaign(
            JobsCampaignSpec(requests=requests(3)))
        for i in range(3):
            assert f"value={i}\n" in report.log_text or \
                f"value={i} " in report.log_text


class TestDuplicateSubmissions:
    def test_duplicates_dedup_and_apply_once(self):
        spec = JobsCampaignSpec(
            requests=requests(4, stagger=2e-4),
            duplicate_submits=(DuplicateSubmitSpec(time=1e-4, index=0),
                               DuplicateSubmitSpec(time=3e-4, index=1),
                               DuplicateSubmitSpec(time=5e-3, index=2)))
        report = run_jobs_campaign(spec)
        assert_exactly_once(report)
        assert report.jobs == 4          # dedup created no new rows
        assert report.dedup_hits == 3
        assert report.completed == 4
        assert report.log_text.count("dedup job=") == 3
        # Exactly one effect record per job, ever.
        assert report.log_text.count("\n") == report.log_records
        for job_id in range(1, 5):
            assert report.log_text.count(f"effect job={job_id} ") == 1


class TestLeaseExpiryRaces:
    def test_stalled_worker_is_fenced_out(self):
        """A stall past lease expiry triggers re-grants; every write
        the zombie makes under an old token is rejected as stale."""
        spec = JobsCampaignSpec(
            requests=requests(2),
            service=ServiceConfig(workers=1, spare_workers=0),
            worker_stalls=(WorkerStallSpec(time=3e-4, host=1,
                                           duration=4e-3),))
        report = run_jobs_campaign(spec)
        assert_exactly_once(report)
        assert report.completed == 2
        assert report.expiries >= 1
        assert report.rejections_stale >= 1
        # Despite the thrash, each job has exactly one durable effect.
        for job_id in (1, 2):
            assert report.log_text.count(f"effect job={job_id} ") == 1

    def test_late_write_accepted_while_token_still_current(self):
        """A partition silences the only worker's heartbeats: falsely
        declared dead, its job requeues — but with nobody to re-grant
        to, the token never moves, so the survivor's late write is
        accepted (REQUEUED -> COMPLETED) and work is not redone."""
        service = ServiceConfig(workers=1, spare_workers=0,
                                repair_seconds=5e-3,
                                detection=FAST_DETECTION)
        spec = JobsCampaignSpec(requests=requests(1, work=3e-3),
                                service=service)
        leaf = next(iter(spec.topology().graph.neighbors(("h", 1))))
        spec = JobsCampaignSpec(
            requests=requests(1, work=3e-3), service=service,
            link_faults=(LinkFaultSpec(start=5e-4, duration=2e-3,
                                       a=("h", 1), b=leaf),))
        report = run_jobs_campaign(spec)
        assert_exactly_once(report)
        assert report.completed == 1
        assert report.false_deaths == 1
        assert report.requeues == 1
        assert report.rejections_stale == 0
        assert "requeue job=1" in report.log_text
        assert "effect job=1 token=1" in report.log_text


class TestSupervisorCrash:
    def test_crash_inside_the_grant_commit_gap(self):
        """The crash lands between the durable grant and the grant
        message: the orphaned lease expires, the restarted supervisor
        rebuilds its table from the log, and the job is re-granted."""
        spec = JobsCampaignSpec(
            requests=requests(2),
            service=ServiceConfig(workers=2, spare_workers=0,
                                  grant_commit_gap=1e-4),
            supervisor_crashes=(SupervisorCrashSpec(time=1.5e-4,
                                                    restart_after=1e-3),))
        report = run_jobs_campaign(spec)
        assert_exactly_once(report)
        assert report.completed == 2
        assert report.supervisor_restarts == 1
        assert report.expiries >= 1       # the orphaned lease
        assert report.grants > report.jobs


class TestWorkerCrashes:
    def test_declared_death_requeues_and_activates_spare(self):
        spec = JobsCampaignSpec(
            requests=requests(6, work=1.5e-3),
            service=ServiceConfig(workers=2, spare_workers=1,
                                  detection=FAST_DETECTION),
            worker_crashes=(WorkerCrashSpec(time=7e-4, host=1),))
        report = run_jobs_campaign(spec)
        assert_exactly_once(report)
        assert report.completed == 6
        assert report.deaths_declared == 1
        assert report.false_deaths == 0
        assert report.spare_activations == 1
        assert "cause=death-declared" in report.log_text


class TestFullCampaign:
    """The ISSUE's acceptance scenario: every fault class at once."""

    def spec(self):
        return JobsCampaignSpec(
            requests=requests(12, work=1.2e-3, stagger=2e-4),
            name="full-campaign", seed=7,
            service=ServiceConfig(workers=4, spare_workers=2),
            worker_crashes=(WorkerCrashSpec(time=1.1e-3, host=1),
                            WorkerCrashSpec(time=4.3e-3, host=3)),
            worker_stalls=(WorkerStallSpec(time=1.6e-3, host=2,
                                           duration=3e-3),),
            supervisor_crashes=(SupervisorCrashSpec(time=2.2e-3,
                                                    restart_after=1.5e-3),),
            duplicate_submits=(DuplicateSubmitSpec(time=9e-4, index=1),
                               DuplicateSubmitSpec(time=3e-3, index=5)),
            drop_probability=0.02)

    def test_effects_exactly_once_under_full_campaign(self):
        report = run_jobs_campaign(self.spec())
        assert_exactly_once(report)
        assert report.completed == 12
        assert report.dedup_hits == 2
        assert report.supervisor_restarts == 1
        assert report.spare_activations == 2
        assert report.fencing_rejections >= 1
        for job_id in range(1, 13):
            assert report.log_text.count(f"effect job={job_id} ") == 1

    def test_runs_on_the_fast_loop(self, loop_calls):
        """With observability and DetSan off, the campaign's ``stop``/
        budget runs deliver every event without the instrumented loop's
        ``Simulator._dispatch``; under DetSan, each event goes through
        it."""
        report = run_jobs_campaign(self.spec())
        assert_exactly_once(report)
        assert loop_calls["stop_runs"] > 0
        assert loop_calls["dispatch"] == 0
        recorder = DetSanRecorder()
        run_jobs_campaign(self.spec(), detsan=recorder)
        assert loop_calls["dispatch"] == recorder.events_folded > 0

    def test_same_seed_runs_are_byte_identical(self):
        proof = prove_determinism(self.spec())
        assert proof.identical
        assert len(proof.digests) == 2
        assert proof.reports[0].log_text == proof.reports[1].log_text

    def test_faulty_goodput_below_clean_baseline(self):
        spec = self.spec()
        faulty = run_jobs_campaign(spec)
        clean = run_jobs_campaign(spec.without_faults())
        assert clean.violations == ()
        assert clean.completed == 12
        # Faults cost goodput; they must never cost correctness.
        assert faulty.elapsed > clean.elapsed

    def test_metrics_are_published(self):
        obs = Observability()
        report = run_jobs_campaign(self.spec(), obs=obs)
        gauges = {}
        for gauge in obs.metrics.gauges():
            name = gauge.key[0]
            gauges.setdefault(name, 0.0)
            gauges[name] += gauge.value
        assert gauges["jobs.completed"] == report.completed
        assert gauges["jobs.lease_renewals"] == report.renewals
        assert gauges["jobs.requeues"] == report.requeues
        assert gauges["jobs.fencing_rejections"] == \
            report.fencing_rejections
        assert gauges["jobs.supervisor_restarts"] == 1.0
        assert gauges["jobs.goodput"] == report.goodput
