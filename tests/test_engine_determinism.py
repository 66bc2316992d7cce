"""Determinism regression for the calendar-queue kernel, at campaign scale.

The engine overhaul (event wheel, pooling, plain-mode fast loop) is
admissible only if full experiment campaigns remain bit-repeatable and
queue-implementation-independent.  These tests run the E20-style fault
campaign (SUMMA under node + link faults) and the E22-style jobs
campaign (control-plane faults) twice under DetSan, and once per queue
implementation, asserting byte-identical digests and Chrome traces.

``DEFAULT_QUEUE`` is module-level precisely so this file can force the
whole stack — fabric, campaign runner, monitor, jobs service — onto the
heap oracle without threading a parameter through every constructor.
"""

import pytest

import repro.sim.engine as engine
from repro.fault.campaign import run_workload
from repro.jobs import (
    JobRequest,
    JobsCampaignSpec,
    ServiceConfig,
    SupervisorCrashSpec,
    WorkerCrashSpec,
    run_jobs_campaign,
)
from repro.obs import Observability, chrome_trace_json
from repro.sim import DetSanRecorder
from repro.sim.detsan import first_divergence
from tests.conftest import make_summa_spec


def jobs_spec():
    """A small E22-style campaign: worker + supervisor crashes on a
    staggered workload (timings mirror the proven full-campaign spec)."""
    return JobsCampaignSpec(
        requests=tuple(JobRequest(tenant=f"t{i % 3}", key=f"job-{i}",
                                  kernel="sum", payload=(("x", i),),
                                  work_seconds=1.2e-3,
                                  submit_time=i * 2e-4)
                       for i in range(8)),
        name="detsan-jobs",
        service=ServiceConfig(workers=4, spare_workers=2),
        worker_crashes=(WorkerCrashSpec(time=1.1e-3, host=1),),
        supervisor_crashes=(SupervisorCrashSpec(time=2.2e-3,
                                                restart_after=1.5e-3),),
        seed=7,
    )


def _fault_campaign_digest():
    recorder = DetSanRecorder()
    outcome = run_workload(make_summa_spec(), detsan=recorder)
    return recorder, outcome


def _jobs_campaign_digest():
    recorder = DetSanRecorder()
    report = run_jobs_campaign(jobs_spec(), detsan=recorder)
    return recorder, report


class TestSameSeedDoubleRun:
    def test_fault_campaign_detsan_digest_repeats(self):
        first, out1 = _fault_campaign_digest()
        second, out2 = _fault_campaign_digest()
        assert first.events_folded == second.events_folded > 0
        assert first.digest == second.digest
        assert first_divergence(first, second) is None
        assert out1.elapsed == out2.elapsed
        assert out1.fault_trace == out2.fault_trace

    def test_jobs_campaign_detsan_digest_repeats(self):
        first, rep1 = _jobs_campaign_digest()
        second, rep2 = _jobs_campaign_digest()
        assert first.events_folded == second.events_folded > 0
        assert first.digest == second.digest
        assert first_divergence(first, second) is None


class TestHeapOracle:
    """The wheel must be observationally identical to the heap, all the
    way up at campaign scale."""

    @pytest.fixture
    def force_heap(self, monkeypatch):
        def apply():
            monkeypatch.setattr(engine, "DEFAULT_QUEUE", "heap")
        return apply

    def test_fault_campaign_digest_matches_heap(self, force_heap):
        wheel, wheel_out = _fault_campaign_digest()
        force_heap()
        heap, heap_out = _fault_campaign_digest()
        assert wheel.digest == heap.digest
        assert first_divergence(wheel, heap) is None
        assert wheel_out.elapsed == heap_out.elapsed
        assert wheel_out.fault_trace == heap_out.fault_trace
        import numpy as np
        for a, b in zip(wheel_out.answers, heap_out.answers):
            assert np.array_equal(a, b)

    def test_jobs_campaign_digest_matches_heap(self, force_heap):
        wheel, wheel_rep = _jobs_campaign_digest()
        force_heap()
        heap, heap_rep = _jobs_campaign_digest()
        assert wheel.digest == heap.digest
        assert first_divergence(wheel, heap) is None

    def test_chrome_trace_bytes_match_heap(self, force_heap):
        """Golden-trace check: the exported Chrome trace of an
        instrumented campaign is byte-identical across queue kinds."""
        def trace():
            obs = Observability()
            run_workload(make_summa_spec(), obs=obs)
            return chrome_trace_json(obs)

        wheel_json = trace()
        force_heap()
        heap_json = trace()
        assert wheel_json == heap_json
