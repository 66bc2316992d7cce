"""Jobs, workload generator, and the free-node profile."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scheduler import Job, JobRecord, WorkloadGenerator, WorkloadParams
from repro.scheduler.profile import FreeNodeProfile
from repro.sim import RandomStreams


class TestJob:
    def test_validation(self):
        with pytest.raises(ValueError):
            Job(1, 0.0, nodes=0, runtime=10.0, estimate=10.0)
        with pytest.raises(ValueError):
            Job(1, 0.0, nodes=1, runtime=0.0, estimate=10.0)
        with pytest.raises(ValueError):
            Job(1, -1.0, nodes=1, runtime=1.0, estimate=1.0)

    def test_record_metrics(self):
        job = Job(1, submit_time=100.0, nodes=4, runtime=50.0, estimate=60.0)
        record = JobRecord(job=job, start_time=130.0, end_time=180.0)
        assert record.wait_time == pytest.approx(30.0)
        assert record.response_time == pytest.approx(80.0)
        assert record.bounded_slowdown() == pytest.approx(80.0 / 50.0)

    def test_bounded_slowdown_floors_tiny_jobs(self):
        job = Job(1, submit_time=0.0, nodes=1, runtime=1.0, estimate=1.0)
        record = JobRecord(job=job, start_time=0.0, end_time=1.0)
        # Response 1s over threshold 10s would be 0.1; floored to 1.
        assert record.bounded_slowdown() == 1.0

    def test_unstarted_record_raises(self):
        record = JobRecord(job=Job(1, 0.0, 1, 1.0, 1.0))
        with pytest.raises(RuntimeError):
            record.wait_time


class TestWorkloadGenerator:
    def make(self, **overrides):
        params = WorkloadParams(**{**dict(max_nodes=128, offered_load=0.7),
                                   **overrides})
        return WorkloadGenerator(params, RandomStreams(seed=99))

    def test_jobs_sorted_and_valid(self):
        jobs = self.make().generate(500)
        submits = [job.submit_time for job in jobs]
        assert submits == sorted(submits)
        assert all(1 <= job.nodes <= 128 for job in jobs)
        assert all(job.runtime >= 1.0 for job in jobs)
        assert all(job.estimate >= job.runtime * (1 - 1e-12) or
                   job.estimate == pytest.approx(job.runtime)
                   for job in jobs)

    def test_estimates_never_below_actual(self):
        generator = self.make()
        runtimes = generator.sample_runtimes(5000)
        estimates = generator.sample_estimates(runtimes)
        assert np.all(estimates >= runtimes * (1 - 1e-12))

    def test_power_of_two_bias(self):
        """Three widths in four snap to a power of two, and about a
        quarter of the rest are one already: some 81 % in all, against
        26 % with no snapping and 100 % when every width snaps."""
        widths = self.make().sample_widths(5000)
        powers = sum(1 for w in widths if (w & (w - 1)) == 0)
        assert powers / len(widths) == pytest.approx(0.814, abs=0.02)

    def test_offered_load_realised(self):
        """Generated work per unit time approximates the target rho."""
        generator = self.make(offered_load=0.6)
        jobs = generator.generate(8000)
        horizon = jobs[-1].submit_time - jobs[0].submit_time
        work = sum(job.node_seconds for job in jobs)
        realised = work / (horizon * 128)
        assert realised == pytest.approx(0.6, rel=0.2)

    def test_reproducible(self):
        a = self.make().generate(50)
        b = self.make().generate(50)
        assert [(j.submit_time, j.nodes, j.runtime) for j in a] == \
               [(j.submit_time, j.nodes, j.runtime) for j in b]

    def test_load_changes_arrival_rate_only(self):
        light = WorkloadGenerator(WorkloadParams(offered_load=0.3),
                                  RandomStreams(seed=5)).generate(100)
        heavy = WorkloadGenerator(WorkloadParams(offered_load=0.9),
                                  RandomStreams(seed=5)).generate(100)
        # Same seeds -> same widths/runtimes, compressed arrivals.
        assert [j.nodes for j in light] == [j.nodes for j in heavy]
        assert heavy[-1].submit_time < light[-1].submit_time

    def test_params_validated(self):
        with pytest.raises(ValueError):
            WorkloadParams(max_nodes=0)
        with pytest.raises(ValueError):
            WorkloadParams(overestimate_max=0.5)


class TestFreeNodeProfile:
    def test_initial_free_accounts_running(self):
        profile = FreeNodeProfile(now=0.0, total_nodes=10,
                                  running=[(5.0, 4), (8.0, 2)])
        assert profile.free_at(0.0) == 4
        assert profile.free_at(5.0) == 8
        assert profile.free_at(9.0) == 10

    def test_overrun_jobs_clamped_to_now(self):
        profile = FreeNodeProfile(now=10.0, total_nodes=4,
                                  running=[(5.0, 2)])  # overran estimate
        assert profile.free_at(10.0) == 2

    def test_earliest_start_immediate_fit(self):
        profile = FreeNodeProfile(0.0, 10, running=[(5.0, 4)])
        assert profile.earliest_start(6, 100.0) == 0.0

    def test_earliest_start_waits_for_release(self):
        profile = FreeNodeProfile(0.0, 10, running=[(5.0, 8)])
        assert profile.earliest_start(6, 100.0) == 5.0

    def test_earliest_start_skips_short_windows(self):
        """A gap shorter than the duration must be skipped."""
        profile = FreeNodeProfile(0.0, 10, running=[(5.0, 8)])
        profile.reserve(start=6.0, duration=10.0, width=9)
        # Free: [0,5):2, [5,6):10, [6,16):1, [16,inf):10.
        # Width 3 fits in [5,6) only for <=1s; a 2s job must wait to 16.
        assert profile.earliest_start(3, 2.0) == 16.0
        assert profile.earliest_start(3, 1.0) == 5.0
        # Width 2 fits immediately at t=0 for any short duration.
        assert profile.earliest_start(2, 2.0) == 0.0

    def test_reserve_rejects_overbooking(self):
        profile = FreeNodeProfile(0.0, 4, running=[(5.0, 4)])
        with pytest.raises(ValueError, match="overbooked"):
            profile.reserve(start=0.0, duration=2.0, width=1)

    def test_oversized_request_rejected(self):
        profile = FreeNodeProfile(0.0, 4, running=[])
        with pytest.raises(ValueError):
            profile.earliest_start(5, 1.0)

    def test_running_exceeding_capacity_rejected(self):
        with pytest.raises(ValueError):
            FreeNodeProfile(0.0, 4, running=[(1.0, 5)])

    @given(
        st.integers(min_value=1, max_value=16),
        st.lists(st.tuples(st.floats(0.1, 50.0), st.integers(1, 4)),
                 max_size=8),
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_earliest_start_is_feasible(self, total, running, width, duration):
        in_use = sum(nodes for _end, nodes in running)
        if in_use > total or width > total:
            return
        profile = FreeNodeProfile(0.0, total, running)
        start = profile.earliest_start(width, duration)
        # The returned window must actually fit: reserving it succeeds.
        profile.reserve(start, duration, width)
        # And free counts never go negative anywhere.
        assert all(free >= 0 for _t, free in profile.segments())
