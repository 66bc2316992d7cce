"""The durable job log: fencing, idempotency, and a byte-canonical record.

This is the control plane's database.  Everything the supervisor must
not forget across a crash lives here — job rows, lease grants with their
**monotonically increasing fencing tokens**, and every accepted *or
rejected* side-effect write — while everything volatile (the lease
table, mailboxes, in-flight messages) can evaporate and be rebuilt.

The write path enforces the two safety rules the whole design hangs on,
at the storage boundary where they cannot be bypassed (the Faultline
pattern: the database, not the worker, is the arbiter):

* **Fencing** — an effect write carries the token from its grant; the
  log accepts it only if that token is the *highest ever granted* for
  the job.  A worker whose lease expired and was re-granted elsewhere
  holds a smaller token, and its late write is rejected as stale.
* **Idempotency** — at most one effect per job, ever.  A duplicate
  write under the winning token (a retransmitted message, a retried
  worker) is acknowledged but not re-applied; duplicate *submissions*
  with the same ``(tenant, key)`` map to the existing job.

Every mutation appends a :class:`LogRecord` whose :meth:`LogRecord.
line` rendering is byte-stable, so two same-seed campaign runs must
produce byte-identical logs (:meth:`JobLog.render` / :meth:`JobLog.
digest`) and :meth:`JobLog.check_invariants` can re-verify the whole
history after the fact by replaying it against the state machine.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.jobs.lease import Lease
from repro.jobs.state import (
    TERMINAL_STATES,
    JobRequest,
    JobState,
    check_transition,
)

__all__ = ["EffectRecord", "JobLog", "JobRow", "LogRecord"]


def _t(value: float) -> str:
    """Canonical fixed-point rendering for times (byte-stable)."""
    return f"{value:.9f}"


@dataclass(frozen=True)
class LogRecord:
    """One appended log entry, renderable deterministically."""

    time: float
    seq: int
    kind: str
    job_id: int
    fields: Tuple[Tuple[str, str], ...] = ()

    def line(self) -> str:
        """Canonical one-line rendering (byte-stable across runs)."""
        text = f"{_t(self.time)} seq={self.seq} {self.kind} job={self.job_id}"
        for key, value in self.fields:
            text += f" {key}={value}"
        return text


@dataclass(frozen=True)
class EffectRecord:
    """The one side effect a job is allowed to produce."""

    job_id: int
    token: int
    worker: int
    value: str
    applied_at: float


@dataclass
class JobRow:
    """Durable per-job state (the log's materialized view)."""

    job_id: int
    tenant: str
    key: str
    kernel: str
    payload: Tuple[Tuple[str, Any], ...]
    work_seconds: float
    submitted_at: float
    state: JobState = JobState.SUBMITTED
    #: Highest token ever granted; 0 means never leased.
    fencing_token: int = 0
    owner: Optional[int] = None
    granted_at: float = 0.0
    expires_at: float = 0.0
    attempts: int = 0
    effect: Optional[EffectRecord] = None
    completed_at: Optional[float] = None
    failed_cause: str = ""


class JobLog:
    """Append-only durable log plus the materialized job rows.

    Single-writer by convention (the supervisor host owns it); workers
    reach it only through supervisor messages.  All mutators take an
    explicit ``now`` — the log has no clock of its own.
    """

    def __init__(self) -> None:
        self.rows: Dict[int, JobRow] = {}
        self.records: List[LogRecord] = []
        self._by_identity: Dict[Tuple[str, str], int] = {}
        #: FIFO arrival order of (re)queued jobs; filtered by state in
        #: :meth:`pending`, so it may hold stale entries.
        self._queue: List[int] = []
        self._seq = 0
        self._next_job_id = 1
        # Counters (all derivable from the records; kept for cheap reads).
        self.submissions = 0
        self.dedup_hits = 0
        self.grants = 0
        self.renewals = 0
        self.renew_rejections = 0
        self.expiries = 0
        self.requeues = 0
        self.completed = 0
        self.failed = 0
        self.rejections_stale = 0
        self.rejections_duplicate = 0
        self.rejections_closed = 0

    # -- append machinery --------------------------------------------------

    def _append(self, now: float, kind: str, job_id: int,
                *fields: Tuple[str, str]) -> LogRecord:
        self._seq += 1
        record = LogRecord(time=now, seq=self._seq, kind=kind,
                           job_id=job_id, fields=tuple(fields))
        self.records.append(record)
        return record

    def _transition(self, row: JobRow, new: JobState) -> None:
        check_transition(row.state, new)
        row.state = new

    # -- submission --------------------------------------------------------

    def submit(self, now: float, request: JobRequest) -> Tuple[int, bool]:
        """Record a submission; returns ``(job_id, deduplicated)``.

        A resubmission of an existing ``(tenant, key)`` — whatever state
        that job is in — returns the existing id with ``True`` and
        appends a ``dedup`` record instead of creating a row.
        """
        self.submissions += 1
        existing = self._by_identity.get(request.identity)
        if existing is not None:
            self.dedup_hits += 1
            self._append(now, "dedup", existing,
                         ("tenant", request.tenant), ("key", request.key))
            return existing, True
        job_id = self._next_job_id
        self._next_job_id += 1
        row = JobRow(job_id=job_id, tenant=request.tenant, key=request.key,
                     kernel=request.kernel, payload=request.payload,
                     work_seconds=request.work_seconds, submitted_at=now)
        self.rows[job_id] = row
        self._by_identity[request.identity] = job_id
        self._queue.append(job_id)
        fingerprint = hashlib.sha256(
            repr(request.payload).encode()).hexdigest()[:12]
        self._append(now, "submit", job_id,
                     ("tenant", request.tenant), ("key", request.key),
                     ("kernel", request.kernel),
                     ("work", _t(request.work_seconds)),
                     ("payload", fingerprint))
        return job_id, False

    # -- lease lifecycle ---------------------------------------------------

    def grant(self, now: float, job_id: int, worker: int,
              lease_seconds: float) -> Lease:
        """Grant a lease: bump the fencing token, start the clock.

        Legal only from SUBMITTED or REQUEUED (the transition check
        enforces it).  The token bump is what fences out every earlier
        leaseholder of this job.
        """
        row = self.rows[job_id]
        self._transition(row, JobState.LEASED)
        row.fencing_token += 1
        row.owner = worker
        row.granted_at = now
        row.expires_at = now + lease_seconds
        row.attempts += 1
        self.grants += 1
        self._append(now, "grant", job_id,
                     ("worker", str(worker)),
                     ("token", str(row.fencing_token)),
                     ("attempt", str(row.attempts)),
                     ("expires", _t(row.expires_at)))
        return Lease(job_id=job_id, worker=worker, token=row.fencing_token,
                     granted_at=now, expires_at=row.expires_at)

    def renew(self, now: float, job_id: int, token: int,
              lease_seconds: float) -> bool:
        """Extend a live lease; False (and a reject record) otherwise.

        A renewal is honored only when the token is current *and* the
        job is still LEASED/RUNNING — a worker whose job was requeued
        under it (death declaration, expiry sweep) renews into a
        rejection and learns to stand down.
        """
        row = self.rows[job_id]
        live = row.state in (JobState.LEASED, JobState.RUNNING)
        if token != row.fencing_token or not live:
            self.renew_rejections += 1
            self._append(now, "reject-renew", job_id,
                         ("token", str(token)),
                         ("current", str(row.fencing_token)),
                         ("state", row.state.value))
            return False
        row.expires_at = now + lease_seconds
        self.renewals += 1
        self._append(now, "renew", job_id, ("token", str(token)),
                     ("expires", _t(row.expires_at)))
        return True

    def mark_running(self, now: float, job_id: int, token: int) -> bool:
        """Record the worker's start report (LEASED -> RUNNING)."""
        row = self.rows[job_id]
        if token != row.fencing_token or row.state is not JobState.LEASED:
            self._append(now, "reject-start", job_id,
                         ("token", str(token)),
                         ("current", str(row.fencing_token)),
                         ("state", row.state.value))
            return False
        self._transition(row, JobState.RUNNING)
        self._append(now, "start", job_id, ("token", str(token)))
        return True

    def expire(self, now: float, job_id: int) -> bool:
        """Requeue a job whose lease deadline passed; False if the job
        already left LEASED/RUNNING (e.g. its write just landed)."""
        row = self.rows[job_id]
        if row.state not in (JobState.LEASED, JobState.RUNNING):
            return False
        if now < row.expires_at:
            raise ValueError(
                f"job {job_id} lease expires at {row.expires_at}, "
                f"not yet at {now}")
        owner = row.owner
        self._transition(row, JobState.REQUEUED)
        row.owner = None
        self.expiries += 1
        self._queue.append(job_id)
        self._append(now, "expire", job_id,
                     ("token", str(row.fencing_token)),
                     ("worker", str(owner)))
        return True

    def requeue_dead_worker(self, now: float, worker: int) -> List[int]:
        """Requeue every LEASED/RUNNING job owned by a declared-dead
        worker; returns the requeued job ids in order."""
        requeued = []
        for job_id in sorted(self.rows):
            row = self.rows[job_id]
            if row.owner != worker:
                continue
            if row.state not in (JobState.LEASED, JobState.RUNNING):
                continue
            self._transition(row, JobState.REQUEUED)
            row.owner = None
            self.requeues += 1
            self._queue.append(job_id)
            self._append(now, "requeue", job_id,
                         ("token", str(row.fencing_token)),
                         ("worker", str(worker)),
                         ("cause", "death-declared"))
            requeued.append(job_id)
        return requeued

    def fail(self, now: float, job_id: int, cause: str) -> None:
        """Close a REQUEUED job as FAILED (attempt budget exhausted)."""
        row = self.rows[job_id]
        self._transition(row, JobState.FAILED)
        row.owner = None
        row.failed_cause = cause
        row.completed_at = now
        self.failed += 1
        self._append(now, "fail", job_id,
                     ("attempts", str(row.attempts)), ("cause", cause))

    # -- the fenced write path ---------------------------------------------

    def apply_effect(self, now: float, job_id: int, token: int,
                     worker: int, value: str) -> str:
        """Attempt a fenced, idempotent side-effect write.

        Returns one of:

        ``"applied"``
            First write under the highest-ever-granted token: the
            effect is recorded and the job completes.
        ``"duplicate"``
            The effect already exists and this is a retransmit under
            the winning token — acknowledged, not re-applied.
        ``"stale"``
            The token is smaller than the current grant: a fenced-out
            leaseholder.  Rejected, recorded, counted.
        ``"closed"``
            The token is current but the job already closed (FAILED
            after exhausting attempts).  Rejected.

        Raises ``ValueError`` for a token larger than any grant — that
        is not a race, it is corruption.
        """
        row = self.rows[job_id]
        if token > row.fencing_token:
            raise ValueError(
                f"job {job_id}: write carries token {token} but only "
                f"{row.fencing_token} were ever granted")
        if row.effect is not None:
            if token == row.effect.token:
                self.rejections_duplicate += 1
                self._append(now, "reject-dup", job_id,
                             ("token", str(token)),
                             ("worker", str(worker)))
                return "duplicate"
            self.rejections_stale += 1
            self._append(now, "reject-stale", job_id,
                         ("token", str(token)),
                         ("current", str(row.fencing_token)),
                         ("worker", str(worker)))
            return "stale"
        if token < row.fencing_token:
            self.rejections_stale += 1
            self._append(now, "reject-stale", job_id,
                         ("token", str(token)),
                         ("current", str(row.fencing_token)),
                         ("worker", str(worker)))
            return "stale"
        if row.state in TERMINAL_STATES:
            self.rejections_closed += 1
            self._append(now, "reject-closed", job_id,
                         ("token", str(token)),
                         ("worker", str(worker)),
                         ("state", row.state.value))
            return "closed"
        self._transition(row, JobState.COMPLETED)
        row.effect = EffectRecord(job_id=job_id, token=token, worker=worker,
                                  value=value, applied_at=now)
        row.owner = None
        row.completed_at = now
        self.completed += 1
        self._append(now, "effect", job_id,
                     ("token", str(token)), ("worker", str(worker)),
                     ("value", value))
        return "applied"

    # -- queries -----------------------------------------------------------

    def pending(self) -> List[int]:
        """Grantable jobs in FIFO (re)queue order."""
        seen = set()
        out = []
        for job_id in self._queue:
            if job_id in seen:
                continue
            seen.add(job_id)
            if self.rows[job_id].state in (JobState.SUBMITTED,
                                           JobState.REQUEUED):
                out.append(job_id)
        return out

    def live_rows(self) -> List[JobRow]:
        """Rows currently LEASED or RUNNING, by job id (lease rebuild)."""
        return [self.rows[job_id] for job_id in sorted(self.rows)
                if self.rows[job_id].state in (JobState.LEASED,
                                               JobState.RUNNING)]

    def all_terminal(self) -> bool:
        """True when every known job has closed (and any exist).

        O(1): :meth:`apply_effect` and :meth:`fail` are the only ways
        into a terminal state, a terminal state has no way out, and
        each counts its job once.
        """
        return bool(self.rows) and (
            self.completed + self.failed == len(self.rows))

    @property
    def fencing_rejections(self) -> int:
        """Stale + duplicate + closed write rejections."""
        return (self.rejections_stale + self.rejections_duplicate
                + self.rejections_closed)

    # -- durability --------------------------------------------------------

    def snapshot(self) -> "JobLog":
        """Deep-copied checkpoint of the whole log (tests and vaults)."""
        return copy.deepcopy(self)

    def render(self) -> str:
        """The full log in canonical text form (one record per line,
        trailing newline when non-empty)."""
        if not self.records:
            return ""
        return "\n".join(record.line() for record in self.records) + "\n"

    def digest(self) -> str:
        """SHA-256 of the canonical rendering."""
        return hashlib.sha256(self.render().encode()).hexdigest()

    # -- invariant verification --------------------------------------------

    def check_invariants(self) -> List[str]:
        """Replay the record stream against the state machine and the
        fencing/idempotency rules; returns human-readable violations
        (empty means the history is provably at-most-once).

        The checker is deliberately independent of the materialized
        rows: it trusts only the append-only records, then cross-checks
        the rows at the end.
        """
        violations: List[str] = []

        def bad(record: LogRecord, why: str) -> None:
            violations.append(f"seq {record.seq} ({record.kind} "
                              f"job {record.job_id}): {why}")

        states: Dict[int, JobState] = {}
        granted: Dict[int, int] = {}
        effects: Dict[int, int] = {}
        effect_tokens: Dict[int, int] = {}
        identities: Dict[Tuple[str, str], int] = {}
        last_seq = 0
        last_time = 0.0

        for record in self.records:
            fields = dict(record.fields)
            job_id = record.job_id
            if record.seq <= last_seq:
                bad(record, f"seq not increasing (after {last_seq})")
            last_seq = record.seq
            if record.time < last_time:
                bad(record, f"time ran backwards (after {_t(last_time)})")
            last_time = record.time

            def move(new: JobState, rec: LogRecord = record,
                     job: int = job_id) -> None:
                old = states.get(job)
                if old is None:
                    bad(rec, "transition for unknown job")
                    return
                try:
                    check_transition(old, new)
                except ValueError as error:
                    bad(rec, str(error))
                states[job] = new

            if record.kind == "submit":
                identity = (fields["tenant"], fields["key"])
                if identity in identities:
                    bad(record, "duplicate submit not deduplicated")
                identities[identity] = job_id
                if job_id in states:
                    bad(record, "job id reused")
                states[job_id] = JobState.SUBMITTED
                granted[job_id] = 0
                effects[job_id] = 0
            elif record.kind == "dedup":
                identity = (fields["tenant"], fields["key"])
                if identities.get(identity) != job_id:
                    bad(record, "dedup does not point at the original job")
            elif record.kind == "grant":
                token = int(fields["token"])
                if token != granted.get(job_id, 0) + 1:
                    bad(record, f"token {token} is not monotonic "
                        f"(previous {granted.get(job_id, 0)})")
                granted[job_id] = token
                move(JobState.LEASED)
            elif record.kind == "start":
                if int(fields["token"]) != granted.get(job_id):
                    bad(record, "start under a non-current token")
                move(JobState.RUNNING)
            elif record.kind in ("expire", "requeue"):
                move(JobState.REQUEUED)
            elif record.kind == "fail":
                move(JobState.FAILED)
            elif record.kind == "effect":
                token = int(fields["token"])
                if token != granted.get(job_id):
                    bad(record, f"EFFECT ACCEPTED UNDER STALE TOKEN "
                        f"{token} (current {granted.get(job_id)})")
                if effects.get(job_id, 0) != 0:
                    bad(record, "SECOND EFFECT APPLIED (at-most-once "
                        "violated)")
                effects[job_id] = effects.get(job_id, 0) + 1
                effect_tokens[job_id] = token
                move(JobState.COMPLETED)
            elif record.kind == "reject-stale":
                # Every stale rejection must be justified: the rejected
                # token is strictly below the highest grant (the effect,
                # if any, was applied under that highest grant).
                token = int(fields["token"])
                if token >= granted.get(job_id, 0):
                    bad(record, f"token {token} rejected as stale but "
                        f"was current")
            elif record.kind == "reject-dup":
                if effects.get(job_id, 0) != 1:
                    bad(record, "duplicate rejection without an applied "
                        "effect")
                if int(fields["token"]) != effect_tokens.get(job_id):
                    bad(record, "duplicate rejection under a different "
                        "token than the effect")
            elif record.kind == "reject-closed":
                if states.get(job_id) not in TERMINAL_STATES:
                    bad(record, "closed rejection on a live job")
            elif record.kind in ("renew", "reject-renew", "reject-start"):
                pass  # informational; no state change
            else:
                bad(record, "unknown record kind")

        # Cross-check the materialized rows against the replay.
        for job_id in sorted(self.rows):
            row = self.rows[job_id]
            replayed = states.get(job_id)
            if replayed is not row.state:
                violations.append(
                    f"job {job_id}: row state {row.state.value} != "
                    f"replayed {replayed.value if replayed else '?'}")
            applied = effects.get(job_id, 0)
            if row.state is JobState.COMPLETED and applied != 1:
                violations.append(
                    f"job {job_id}: COMPLETED with {applied} effects")
            if row.state is not JobState.COMPLETED and applied != 0:
                violations.append(
                    f"job {job_id}: {applied} effects but state "
                    f"{row.state.value}")
            if (row.effect is not None
                    and row.effect.token != row.fencing_token):
                violations.append(
                    f"job {job_id}: effect token {row.effect.token} != "
                    f"final fencing token {row.fencing_token}")
        return violations
