"""End-to-end fault campaigns: the PR's acceptance criteria.

Real kernels (SUMMA, 2D stencil) run under >= 3 node faults and >= 2
link down windows, recover via coordinated checkpoint/restart, and
produce answers bit-identical to the failure-free run; the same seed
reproduces the identical failure trace, retry counts, and metrics.
"""

import numpy as np
import pytest

import repro.apps.campaigns  # noqa: F401  (registers the kernels)
from repro.fault import (
    CheckpointVault,
    LinkFaultSpec,
    NodeFaultSpec,
    SwitchFaultSpec,
    available_kernels,
    campaign,
    get_kernel,
    run_campaign,
)
from repro.health import DetectionSpec
from repro.sim import RandomStreams, SimulationError
from tests.conftest import CAMPAIGN_NODE_FAULTS as NODE_FAULTS
from tests.conftest import make_stencil_spec as stencil_spec
from tests.conftest import make_summa_spec as summa_spec


class TestKernelRegistry:
    def test_standard_kernels_registered(self):
        assert {"summa", "stencil2d"} <= set(available_kernels())

    def test_unknown_kernel_names_the_registry_module(self):
        with pytest.raises(KeyError, match="repro.apps.campaigns"):
            get_kernel("no-such-kernel")


class TestCheckpointVault:
    def test_commit_requires_every_rank(self):
        vault = CheckpointVault(2)
        vault.stage(0, 1, "a0", now=1.0)
        assert vault.latest is None
        vault.stage(1, 1, "a1", now=1.5)
        assert vault.latest == (1, {0: "a0", 1: "a1"})
        assert vault.commits == 1
        assert vault.last_commit_time == 1.5

    def test_rollback_discards_partial_stages(self):
        vault = CheckpointVault(2)
        vault.stage(0, 1, "a0", now=1.0)
        vault.rollback()
        vault.stage(1, 1, "a1", now=2.0)
        assert vault.latest is None  # rank 0's stage was discarded

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointVault(0)


class TestSpecValidation:
    def test_victim_rank_bounds(self):
        with pytest.raises(ValueError):
            summa_spec(node_faults=(NodeFaultSpec(time=0.1, rank=9),))

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            NodeFaultSpec(time=-1.0, rank=0)
        with pytest.raises(ValueError):
            LinkFaultSpec(start=0.0, duration=0.0, a=("h", 0), b=("s", 0))
        with pytest.raises(ValueError):
            SwitchFaultSpec(start=-1.0, duration=1.0, node=("s", 2))

    def test_unknown_link_fails_loudly(self):
        spec = summa_spec(link_faults=(
            LinkFaultSpec(start=0.0, duration=1.0,
                          a=("host", 0), b=("leaf", 0)),))
        with pytest.raises(ValueError, match="no such link"):
            run_campaign(spec)

    def test_unknown_switch_fails_loudly(self):
        spec = summa_spec(switch_faults=(
            SwitchFaultSpec(start=0.0, duration=1.0, node=("s", 99)),))
        with pytest.raises(ValueError, match="no such node"):
            run_campaign(spec)


class TestSummaCampaign:
    def test_recovers_bit_identical(self):
        report = run_campaign(summa_spec())
        faulty = report.faulty
        assert report.answers_match
        assert len(faulty.fault_trace) == 3
        assert faulty.incarnations == 4  # one restart per node fault
        assert faulty.comm_stats["retries"] > 0  # host link outage
        assert faulty.fabric_counters["reroutes"] > 0  # spine outage
        assert faulty.elapsed > report.clean.elapsed
        assert 0 < report.goodput < 1

    def test_answer_is_the_true_product(self):
        report = run_campaign(summa_spec())
        rng = RandomStreams(7).fresh("apps.summa.input")
        a_full = rng.standard_normal((8, 8))
        b_full = rng.standard_normal((8, 8))
        # Rank 0 gathers C; block accumulation order matches the kernel,
        # not a @ b directly, so compare with a tolerance.
        product = report.faulty.answers[0]
        np.testing.assert_allclose(product, a_full @ b_full,
                                   rtol=1e-10, atol=1e-12)
        assert np.array_equal(product, report.clean.answers[0])


class TestStencilCampaign:
    def test_recovers_bit_identical_and_restores_checkpoints(self):
        report = run_campaign(stencil_spec())
        faulty = report.faulty
        assert report.answers_match
        assert len(faulty.fault_trace) == 3
        assert faulty.incarnations == 4
        assert faulty.commits > 0
        # At least one restart resumed from a committed checkpoint
        # rather than from scratch.
        assert any(step is not None
                   for _t, _rank, step in faulty.fault_trace)
        assert np.array_equal(faulty.answers[0], report.clean.answers[0])


class TestDeterminism:
    @pytest.mark.parametrize("spec_fn", [summa_spec, stencil_spec])
    def test_same_seed_same_trace_and_metrics(self, spec_fn):
        first = run_campaign(spec_fn())
        second = run_campaign(spec_fn())
        assert first.faulty.fault_trace == second.faulty.fault_trace
        assert first.faulty.comm_stats == second.faulty.comm_stats
        assert first.faulty.fabric_counters == second.faulty.fabric_counters
        assert first.faulty.elapsed == second.faulty.elapsed
        assert first.faulty.lost_work_seconds == (
            second.faulty.lost_work_seconds)
        assert first.goodput == second.goodput
        assert np.array_equal(first.faulty.answers[0],
                              second.faulty.answers[0])

    def test_different_seed_changes_jitter_timing(self):
        base = run_campaign(summa_spec())
        other = run_campaign(summa_spec(seed=8))
        # Inputs differ, so answers differ; both still self-consistent.
        assert base.answers_match and other.answers_match
        assert not np.array_equal(base.faulty.answers[0],
                                  other.faulty.answers[0])


class TestRandomLossCampaign:
    def test_random_drops_survived_by_reliable_delivery(self):
        report = run_campaign(summa_spec(
            link_faults=(), node_faults=NODE_FAULTS,
            drop_probability=0.1))
        assert report.answers_match
        assert report.faulty.fabric_counters["drops"] > 0
        assert report.faulty.comm_stats["retries"] > 0

    def test_fault_free_campaign_is_the_baseline(self):
        report = run_campaign(summa_spec(node_faults=(), link_faults=()))
        assert report.answers_match
        assert report.faulty.incarnations == 1
        assert report.goodput == pytest.approx(1.0)

    def test_report_summary_mentions_verdict(self):
        report = run_campaign(summa_spec())
        assert "bit-identical" in report.summary()
        assert "3 node fault(s)" in report.summary()


class KernelBug(RuntimeError):
    """A deliberate defect in a test kernel."""


def buggy_kernel(ranks, streams, app_args):
    """Rank 1 raises; the other ranks wait for it in a barrier."""

    def body(comm, ckpt):
        if comm.rank == 1:
            yield comm.sim.timeout(1e-5)
            raise KernelBug("rank 1 hit a kernel bug")
        yield from comm.barrier()
        return comm.rank

    return body


def stuck_kernel(ranks, streams, app_args):
    """Rank 1 waits on an event that never fires."""

    def body(comm, ckpt):
        if comm.rank == 1:
            yield comm.sim.event("never")
        yield comm.sim.timeout(1e-5)
        return comm.rank

    return body


@pytest.fixture
def broken_kernels(monkeypatch):
    """Register the broken kernels for one test only."""
    monkeypatch.setitem(campaign._KERNELS, "kernel-bug", buggy_kernel)
    monkeypatch.setitem(campaign._KERNELS, "stuck", stuck_kernel)


@pytest.mark.usefixtures("broken_kernels")
class TestFailurePaths:
    def test_oracle_reports_the_failed_rank_not_a_blocked_one(self):
        """Ranks 0, 2 and 3 are blocked because rank 1 raised, so the
        error names rank 1's bug, not "rank 0 still blocked"."""
        with pytest.raises(KernelBug, match="rank 1"):
            run_campaign(summa_spec(kernel="kernel-bug"))

    def test_detected_budget_error_chains_the_failed_rank(self,
                                                          monkeypatch):
        """The monitor keeps the queue busy, so the run spins to its
        event budget; the budget error carries the rank's bug as its
        cause."""
        monkeypatch.setattr(campaign, "_DETECTION_MAX_EVENTS", 20_000)
        monkeypatch.setattr(campaign, "_DETECTION_CHUNK_EVENTS", 5_000)
        spec = summa_spec(
            kernel="kernel-bug", link_faults=(),
            detection=DetectionSpec(detector="fixed",
                                    heartbeat_interval=1e-4))
        with pytest.raises(SimulationError, match="event budget") as info:
            run_campaign(spec)
        assert isinstance(info.value.__cause__, KernelBug)

    def test_oracle_still_reports_a_deadlock(self):
        """No rank failed, but rank 1 can never finish: once the faults
        are spent and the queue drains, the supervisor must stop."""
        with pytest.raises(SimulationError,
                           match="campaign deadlock: rank 1 still blocked"):
            run_campaign(summa_spec(kernel="stuck"))
