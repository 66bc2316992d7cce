"""The durable job log: fencing, idempotency, dedup, and the replay
checker.

The load-bearing suite is ``TestExactExpiryInstant``: three runs of
the same race — a worker finishing *exactly* at the lease-expiry
instant — resolved three legal ways depending on what the supervisor
does first.  All three must preserve at-most-once.
"""

import pytest

from repro.jobs import JobLog, JobRequest, JobState, Lease, LeaseTable
from repro.jobs.state import TERMINAL_STATES


def make_request(key="k1", **kwargs):
    base = dict(tenant="acme", key=key, kernel="sum",
                payload=(("a", 1), ("b", 2)), work_seconds=1e-3)
    base.update(kwargs)
    return JobRequest(**base)


def submit_and_grant(log, now=0.0, worker=1, lease_seconds=1.0, key="k1"):
    job_id, dedup = log.submit(now, make_request(key=key))
    assert not dedup
    lease = log.grant(now, job_id, worker, lease_seconds)
    return job_id, lease


class TestSubmission:
    def test_submit_assigns_increasing_ids(self):
        log = JobLog()
        first, _ = log.submit(0.0, make_request(key="a"))
        second, _ = log.submit(0.0, make_request(key="b"))
        assert second == first + 1

    def test_duplicate_submission_dedups_to_same_id(self):
        log = JobLog()
        job_id, dedup = log.submit(0.0, make_request())
        again, redup = log.submit(5.0, make_request())
        assert not dedup and redup
        assert again == job_id
        assert log.dedup_hits == 1
        assert len(log.rows) == 1

    def test_dedup_applies_in_every_state(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        assert log.submit(0.1, make_request()) == (job_id, True)
        log.apply_effect(0.2, job_id, lease.token, 1, "3")
        assert log.submit(0.3, make_request()) == (job_id, True)
        assert log.completed == 1

    def test_distinct_tenants_are_distinct_jobs(self):
        log = JobLog()
        first, _ = log.submit(0.0, make_request())
        second, _ = log.submit(0.0, make_request(tenant="other"))
        assert first != second


class TestLeaseLifecycle:
    def test_grant_bumps_token_and_attempts(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        assert lease.token == 1
        row = log.rows[job_id]
        assert row.state is JobState.LEASED
        assert row.attempts == 1
        assert row.expires_at == pytest.approx(1.0)

    def test_renew_extends_live_lease(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        assert log.renew(0.5, job_id, lease.token, 1.0)
        assert log.rows[job_id].expires_at == pytest.approx(1.5)

    def test_renew_with_stale_token_is_rejected(self):
        log = JobLog()
        job_id, _ = submit_and_grant(log)
        assert log.expire(1.0, job_id)
        log.grant(1.0, job_id, worker=2, lease_seconds=1.0)
        assert not log.renew(1.2, job_id, 1, 1.0)
        assert log.renew_rejections == 1

    def test_expire_before_deadline_raises(self):
        log = JobLog()
        job_id, _ = submit_and_grant(log)
        with pytest.raises(ValueError, match="not yet"):
            log.expire(0.5, job_id)

    def test_requeue_dead_worker_takes_only_their_jobs(self):
        log = JobLog()
        first, _ = submit_and_grant(log, key="a", worker=1)
        second, _ = submit_and_grant(log, key="b", worker=2)
        assert log.requeue_dead_worker(0.5, 1) == [first]
        assert log.rows[first].state is JobState.REQUEUED
        assert log.rows[second].state is JobState.LEASED

    def test_mark_running_rejects_stale_token(self):
        log = JobLog()
        job_id, _ = submit_and_grant(log)
        assert log.expire(1.0, job_id)
        log.grant(1.0, job_id, worker=2, lease_seconds=1.0)
        assert not log.mark_running(1.1, job_id, 1)
        assert log.mark_running(1.1, job_id, 2)


class TestFencedWrites:
    def test_first_write_applies(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        assert log.apply_effect(0.5, job_id, lease.token, 1, "3") == \
            "applied"
        row = log.rows[job_id]
        assert row.state is JobState.COMPLETED
        assert row.effect.value == "3"

    def test_retransmit_is_duplicate_not_reapplied(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        log.apply_effect(0.5, job_id, lease.token, 1, "3")
        assert log.apply_effect(0.6, job_id, lease.token, 1, "3") == \
            "duplicate"
        assert log.completed == 1
        assert log.rejections_duplicate == 1

    def test_stale_token_is_rejected(self):
        log = JobLog()
        job_id, _ = submit_and_grant(log)
        log.expire(1.0, job_id)
        log.grant(1.0, job_id, worker=2, lease_seconds=1.0)
        assert log.apply_effect(1.5, job_id, 1, 1, "3") == "stale"
        assert log.rows[job_id].state is JobState.LEASED
        assert log.rejections_stale == 1

    def test_stale_write_after_winner_applied(self):
        log = JobLog()
        job_id, _ = submit_and_grant(log)
        log.expire(1.0, job_id)
        log.grant(1.0, job_id, worker=2, lease_seconds=1.0)
        assert log.apply_effect(1.5, job_id, 2, 2, "3") == "applied"
        assert log.apply_effect(1.6, job_id, 1, 1, "3") == "stale"
        assert log.rows[job_id].effect.token == 2

    def test_write_to_failed_job_is_closed(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        log.expire(1.0, job_id)
        log.fail(1.0, job_id, "attempts-exhausted")
        assert log.apply_effect(1.5, job_id, lease.token, 1, "3") == \
            "closed"
        assert log.rejections_closed == 1

    def test_never_granted_token_is_corruption(self):
        log = JobLog()
        job_id, _ = submit_and_grant(log)
        with pytest.raises(ValueError, match="ever granted"):
            log.apply_effect(0.5, job_id, 7, 1, "3")


def every_row_closed(log):
    """``all_terminal`` by its definition: a scan of every row."""
    return bool(log.rows) and all(
        row.state in TERMINAL_STATES for row in log.rows.values())


class TestAllTerminal:
    def test_empty_log_is_not_done(self):
        assert not JobLog().all_terminal()

    def test_dedup_hit_adds_no_job(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        assert log.submit(0.1, make_request()) == (job_id, True)
        assert not log.all_terminal()
        log.apply_effect(0.2, job_id, lease.token, 1, "3")
        assert log.all_terminal()
        assert log.submit(0.3, make_request()) == (job_id, True)
        assert log.apply_effect(0.4, job_id, lease.token, 1, "3") == \
            "duplicate"
        assert log.all_terminal()

    def test_failed_job_is_terminal(self):
        log = JobLog()
        job_id, _ = submit_and_grant(log)
        log.expire(1.0, job_id)
        assert not log.all_terminal()
        log.fail(1.0, job_id, "attempts-exhausted")
        assert log.all_terminal()

    def test_matches_a_scan_of_the_rows_in_mixed_states(self):
        log = JobLog()
        seen = []

        def check():
            seen.append(log.all_terminal())
            assert seen[-1] == every_row_closed(log)

        check()
        done, done_lease = submit_and_grant(log, key="done")
        running, running_lease = submit_and_grant(log, key="running")
        failed, _ = submit_and_grant(log, key="failed")
        waiting, _ = log.submit(0.0, make_request(key="waiting"))
        check()
        log.mark_running(0.1, running, running_lease.token)
        log.apply_effect(0.2, done, done_lease.token, 1, "3")
        log.expire(1.0, failed)
        check()
        log.fail(1.0, failed, "attempts-exhausted")
        log.apply_effect(1.1, running, running_lease.token, 1, "3")
        check()
        waiting_lease = log.grant(1.2, waiting, 2, 1.0)
        log.apply_effect(1.3, waiting, waiting_lease.token, 2, "3")
        check()
        assert seen == [False, False, False, False, True]
        assert {row.state for row in log.rows.values()} == TERMINAL_STATES


class TestExactExpiryInstant:
    """The worker finishes exactly at the lease-expiry instant.

    At that one timestamp three interleavings are possible, decided
    deterministically by the engine's event order.  Each is legal and
    each preserves at-most-once; these tests pin all three.
    """

    def test_write_drains_first_expiry_becomes_noop(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        assert log.apply_effect(1.0, job_id, lease.token, 1, "3") == \
            "applied"
        assert log.expire(1.0, job_id) is False
        assert log.expiries == 0
        assert log.check_invariants() == []

    def test_expiry_first_late_write_accepted_under_current_token(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        assert log.expire(1.0, job_id) is True
        # No re-grant yet: token 1 is still the highest ever granted,
        # so the "late" write is not stale (REQUEUED -> COMPLETED).
        assert log.apply_effect(1.0, job_id, lease.token, 1, "3") == \
            "applied"
        assert log.rows[job_id].state is JobState.COMPLETED
        assert log.check_invariants() == []

    def test_expiry_and_regrant_first_late_write_fenced_out(self):
        log = JobLog()
        job_id, _ = submit_and_grant(log)
        assert log.expire(1.0, job_id) is True
        regrant = log.grant(1.0, job_id, worker=2, lease_seconds=1.0)
        assert log.apply_effect(1.0, job_id, 1, 1, "3") == "stale"
        assert log.apply_effect(1.5, job_id, regrant.token, 2, "3") == \
            "applied"
        assert log.completed == 1
        assert log.check_invariants() == []

    def test_lease_expired_uses_closed_deadline(self):
        lease = Lease(job_id=1, worker=1, token=1, granted_at=0.0,
                      expires_at=1.0)
        assert not lease.expired(0.999999)
        assert lease.expired(1.0)


class TestLeaseTable:
    def test_rebuild_from_log_recovers_live_leases(self):
        log = JobLog()
        first, lease_a = submit_and_grant(log, key="a", worker=1)
        second, lease_b = submit_and_grant(log, key="b", worker=2)
        log.mark_running(0.1, second, lease_b.token)
        third, lease_c = submit_and_grant(log, key="c", worker=3)
        log.apply_effect(0.2, third, lease_c.token, 3, "3")
        table = LeaseTable.rebuild(log, 0.5)
        assert sorted(lease.job_id for lease in
                      table.expired(99.0)) == [first, second]
        assert table.get(third) is None
        assert table.busy_workers() == [1, 2]

    def test_double_grant_same_job_raises(self):
        table = LeaseTable()
        lease = Lease(job_id=1, worker=1, token=1, granted_at=0.0,
                      expires_at=1.0)
        table.add(lease)
        with pytest.raises(ValueError, match="already holds"):
            table.add(lease)

    def test_expired_ordering_is_deterministic(self):
        table = LeaseTable()
        for job_id, expires in ((3, 1.0), (1, 1.0), (2, 0.5)):
            table.add(Lease(job_id=job_id, worker=job_id, token=1,
                            granted_at=0.0, expires_at=expires))
        assert [lease.job_id for lease in table.expired(2.0)] == \
            [2, 1, 3]


class TestDurability:
    def test_render_is_byte_stable(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        log.apply_effect(0.5, job_id, lease.token, 1, "3")
        text = log.render()
        assert text == log.render()
        assert text.endswith("\n")
        assert "effect job=1" in text

    def test_identical_histories_identical_digests(self):
        def build():
            log = JobLog()
            job_id, lease = submit_and_grant(log)
            log.apply_effect(0.5, job_id, lease.token, 1, "3")
            return log
        assert build().digest() == build().digest()

    def test_snapshot_is_independent(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        checkpoint = log.snapshot()
        log.apply_effect(0.5, job_id, lease.token, 1, "3")
        assert checkpoint.completed == 0
        assert log.completed == 1
        assert checkpoint.digest() != log.digest()


class TestInvariantChecker:
    def test_clean_history_has_no_violations(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        log.mark_running(0.1, job_id, lease.token)
        log.apply_effect(0.5, job_id, lease.token, 1, "3")
        assert log.check_invariants() == []

    def test_tampered_effect_token_is_caught(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        log.apply_effect(0.5, job_id, lease.token, 1, "3")
        # Corrupt the materialized row behind the records' back.
        log.rows[job_id].fencing_token = 9
        assert log.check_invariants() != []

    def test_double_effect_is_caught(self):
        log = JobLog()
        job_id, lease = submit_and_grant(log)
        log.apply_effect(0.5, job_id, lease.token, 1, "3")
        # Force a second effect record into the raw stream.
        log._append(0.6, "effect", job_id, ("token", str(lease.token)),
                    ("worker", "1"), ("value", "3"))
        violations = log.check_invariants()
        assert any("effect" in violation for violation in violations)
