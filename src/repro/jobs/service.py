"""The job service: supervisor, workers, and the fenced message plane.

Topology: the **supervisor** (plus the durable :class:`~repro.jobs.log.
JobLog`) lives on fabric host 0; **workers** occupy hosts ``1..W`` and
**spares** the hosts after them.  Every message — grant, start report,
lease renewal, effect write, write ack — is a real
:meth:`~repro.network.fabric.Fabric.send` into the destination
host's mailbox, so partitions, drops, and congestion delay or lose
control traffic exactly as they would in production.  A
:class:`~repro.health.monitor.HeartbeatMonitor` (host 0 is the monitor
host) supplies death declarations; the supervisor believes them —
including the false ones — and stays safe anyway, because every
recovery action is fenced by the log.

The failure-mode cast, and who defends against each:

* **supervisor crash mid-grant** — the grant is durable before the
  grant *message* is sent (``grant_commit_gap`` opens the window); a
  crash in the window leaves an orphaned lease that simply expires and
  requeues.  The restarted supervisor rebuilds its lease table from
  the log.
* **lease expiry racing a slow worker** — a stalled worker misses its
  renewals; the lease expires and the job requeues.  If nobody has
  been re-granted, the late write's token is still current and is
  accepted (at-most-once preserved); the instant a re-grant bumps the
  token, the late write is rejected as stale.
* **duplicate submissions** — deduplicated by ``(tenant, key)`` at the
  log.
* **duplicate/lost messages** — writes retry until acked; the log's
  idempotency makes the retries harmless, and *every* write outcome is
  acked so fenced-out workers stand down instead of spinning.

Worker *crash* and *stall* injection is driven by the campaign layer
(:mod:`repro.jobs.campaign`) via :class:`WorkerStall` interrupts and
the monitor's ground-truth :meth:`~repro.health.monitor.
HeartbeatMonitor.crash` — which the supervisor never sees directly;
it only sees declarations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Tuple,
)

from repro.fault.availability import DetectorDrivenSparePool
from repro.health.gossip import build_monitor
from repro.health.monitor import (
    DeathRecord,
    DetectionSpec,
)
from repro.jobs.lease import LeaseTable
from repro.jobs.log import JobLog
from repro.jobs.state import JobRequest
from repro.network.fabric import Fabric
from repro.obs import Observability
from repro.sim.engine import Interrupt, Process, Simulator, Task
from repro.sim.event import Event
from repro.sim.resources import Store
from repro.sim.rng import RandomStreams

__all__ = [
    "JobService",
    "Message",
    "ServiceConfig",
    "WorkerStall",
    "available_job_kernels",
    "get_job_kernel",
    "register_job_kernel",
]


# -- job kernels -----------------------------------------------------------

#: A job kernel maps the request payload to the job's one canonical
#: side-effect value (a deterministic string — the log is byte-compared).
JobKernelFn = Callable[[Tuple[Tuple[str, Any], ...]], str]

_JOB_KERNELS: Dict[str, JobKernelFn] = {}


def register_job_kernel(name: str, fn: JobKernelFn) -> None:
    """Register a job kernel (idempotent per name)."""
    _JOB_KERNELS[name] = fn


def get_job_kernel(name: str) -> JobKernelFn:
    """Look up a registered job kernel by name."""
    try:
        return _JOB_KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown job kernel {name!r}; available: "
            f"{available_job_kernels()}") from None


def available_job_kernels() -> List[str]:
    """Registered job kernel names, sorted."""
    return sorted(_JOB_KERNELS)


def _digest_kernel(payload: Tuple[Tuple[str, Any], ...]) -> str:
    """Default kernel: a canonical digest of the payload."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _sum_kernel(payload: Tuple[Tuple[str, Any], ...]) -> str:
    """Sum integer payload values (human-checkable effects in tests)."""
    return str(sum(int(value) for _name, value in payload))


register_job_kernel("digest", _digest_kernel)
register_job_kernel("sum", _sum_kernel)


# -- wire format -----------------------------------------------------------


@dataclass(frozen=True)
class Message:
    """One control-plane message (grant, start, renew, write, ack)."""

    kind: str
    job_id: int
    token: int
    sender: int
    value: str = ""
    outcome: str = ""
    kernel: str = ""
    payload: Tuple[Tuple[str, Any], ...] = ()
    work: float = 0.0
    #: Grant messages carry their lease deadline so a worker can
    #: discard a grant that expired while queued behind other work
    #: instead of executing it with a doomed token.
    expires: float = 0.0


@dataclass(frozen=True)
class WorkerStall:
    """Interrupt cause: the worker freezes for ``seconds`` (GC pause,
    overloaded host) — it stops renewing but is *not* dead, which is
    exactly how lease-expiry races are born."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError("stall must last a positive time")


# -- configuration ---------------------------------------------------------

# The service's timing is sized for simulation (milliseconds, not
# minutes).  Two relations keep it safe and cheap, and a test pins both:
# a lease outlives a renewal period (a worker must get one renewal in
# per lease term), and the write-retry wait exceeds a supervisor tick
# plus a round trip (or every write pays a pointless retransmit).

#: How long a grant or renewal keeps a job leased to its worker.
LEASE_SECONDS = 2e-3
#: A working worker renews its lease this often.
RENEW_EVERY = 5e-4
#: The supervisor's loop period (drain inbox, deaths, expiries, grants).
TICK_INTERVAL = 2.5e-4
#: A worker resends an unacknowledged effect write after this long.
WRITE_RETRY_SECONDS = 1.5e-3
#: Resends of one effect write before the worker stands down.
WRITE_MAX_RETRIES = 10
#: Grants a job gets before it fails as ``attempts-exhausted``.
MAX_ATTEMPTS = 8
#: Wire bytes of every control-plane message.
MESSAGE_BYTES = 256


@dataclass(frozen=True)
class ServiceConfig:
    """Declarative shape of one job service: its hosts, the
    supervisor-crash-mid-grant window, the repair delay and the
    detector.  Lease, tick and write-retry timing are the module
    constants above (``LEASE_SECONDS`` and the rest).
    """

    workers: int = 4
    spare_workers: int = 0
    grant_commit_gap: float = 2e-5
    repair_seconds: float = 2e-3
    detection: Optional[DetectionSpec] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.spare_workers < 0:
            raise ValueError("spare_workers must be >= 0")
        if self.grant_commit_gap < 0:
            raise ValueError("grant_commit_gap must be >= 0")
        if self.repair_seconds < 0:
            raise ValueError("repair_seconds must be >= 0")
        detection = self.detection
        if detection is not None and detection.monitor_host != 0:
            raise ValueError("the supervisor host (0) must be the "
                             "monitor host")

    @property
    def total_hosts(self) -> int:
        """Supervisor + workers + spares."""
        return 1 + self.workers + self.spare_workers

    def effective_detection(self) -> DetectionSpec:
        """The detection spec, defaulted to a fixed-timeout monitor."""
        if self.detection is not None:
            return self.detection
        return DetectionSpec(monitor_host=0)


# -- the service -----------------------------------------------------------

_WORK_EPS = 1e-12


class JobService:
    """Supervisor + workers + heartbeat monitor on one simulator.

    Lifecycle: construct, :meth:`start`, submit via :meth:`submit`
    (any time, including mid-run), drive the simulator (the monitor
    keeps the queue non-empty forever — always run with ``until=`` or
    ``stop=``), then :meth:`shutdown` twice around ``sim.run(until=
    sim.now)`` passes (same-timestamp no-op rule) and ``sim.quiesce()``.
    :mod:`repro.jobs.campaign` packages that dance.
    """

    def __init__(self, sim: Simulator, fabric: Fabric,
                 config: Optional[ServiceConfig] = None,
                 streams: Optional[RandomStreams] = None) -> None:
        self.sim = sim
        self.fabric = fabric
        self.config = config if config is not None else ServiceConfig()
        hosts = self.config.total_hosts
        if fabric.topology.hosts < hosts:
            raise ValueError(
                f"service needs {hosts} hosts but the fabric has "
                f"{fabric.topology.hosts}")
        self.monitor = build_monitor(
            sim, fabric, hosts, spec=self.config.effective_detection(),
            streams=streams)
        self.log = JobLog()
        self.leases = LeaseTable()
        self.inboxes: List[Store] = [
            Store(sim, name=f"jobs.inbox{host}") for host in range(hosts)]
        self._serving: List[int] = list(range(1, 1 + self.config.workers))
        self.spares = DetectorDrivenSparePool(
            range(1 + self.config.workers, hosts))
        self._workers: Dict[int, Process] = {}
        self._repair_procs: List[Process] = []
        self._repair_covered: Dict[int, bool] = {}
        self.supervisor: Optional[Process] = None
        self.supervisor_incarnations = 0
        #: ``(time, activated_spare, dead_node)`` per activation.
        self.spare_activation_log: List[Tuple[float, int, int]] = []
        self.messages_sent = 0
        self.messages_lost = 0
        self.messages_delivered = 0
        self.inbox_purged = 0
        self.write_giveups = 0
        self.stale_grants_dropped = 0
        self.deaths_handled = 0
        self._msg_seq = 0
        self._worker_seq = 0
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the monitor, every worker (spares included — they idle
        until granted), and the first supervisor incarnation."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self.monitor.start()
        for host in range(1, self.config.total_hosts):
            self._spawn_worker(host)
        self.start_supervisor()

    def start_supervisor(self) -> None:
        """(Re)start the supervisor process — the crash-recovery path.

        The new incarnation owns nothing but the durable log: its lease
        table and pending view are rebuilt inside the process body."""
        if self.supervisor is not None and self.supervisor.is_alive:
            raise RuntimeError("supervisor is already running")
        self.supervisor_incarnations += 1
        self.supervisor = self.sim.process(
            self._supervisor_body(),
            name=f"jobs.super.{self.supervisor_incarnations}")

    def shutdown(self) -> None:
        """Interrupt every live service process (call twice around
        ``sim.run(until=sim.now)`` for the same-timestamp no-op rule)."""
        if self.supervisor is not None and self.supervisor.is_alive:
            self.supervisor.interrupt("shutdown")
        for host in sorted(self._workers):
            process = self._workers[host]
            if process.is_alive:
                process.interrupt("shutdown")
        for process in self._repair_procs:
            if process.is_alive:
                process.interrupt("shutdown")
        self.monitor.stop()

    # -- client surface ----------------------------------------------------

    def submit(self, request: JobRequest) -> Tuple[int, bool]:
        """Submit (or re-submit) a job; returns ``(job_id, dedup)``.

        Clients write straight to the durable log — the submission API
        is the database's front door, so duplicates are caught even
        while the supervisor is down.
        """
        get_job_kernel(request.kernel)  # unknown kernels fail loudly here
        return self.log.submit(self.sim.now, request)

    # -- fault-injection surface (campaign layer) --------------------------

    def worker_process(self, host: int) -> Optional[Process]:
        """The current worker process on ``host`` (None before start)."""
        return self._workers.get(host)

    def crash_worker(self, host: int) -> Optional[Process]:
        """Ground-truth crash of a worker host: heartbeats stop, and the
        returned process must be interrupted (twice, around zero-length
        runs) by the injector.  The supervisor learns nothing until the
        detector speaks."""
        self.monitor.crash(host)
        return self._workers.get(host)

    def stall_worker(self, host: int, seconds: float) -> bool:
        """Freeze a worker for ``seconds`` (no renewals, not dead)."""
        process = self._workers.get(host)
        if process is None or not process.is_alive:
            return False
        process.interrupt(WorkerStall(seconds))
        return True

    def purge_supervisor_inbox(self) -> int:
        """Drop the supervisor's undrained mailbox (crash-instant
        in-flight loss); returns the number of messages lost."""
        dropped = self.inboxes[0].purge(lambda message: True)
        self.inbox_purged += dropped
        return dropped

    # -- workers -----------------------------------------------------------

    def _spawn_worker(self, host: int, purge: bool = False) -> None:
        if purge:
            # A rebooted host's queued traffic died with it.
            self.inboxes[host].purge(lambda message: True)
        self._worker_seq += 1
        self._workers[host] = self.sim.process(
            self._worker_body(host),
            name=f"jobs.worker{host}.{self._worker_seq}")

    def _worker_body(self, host: int) -> Generator[Event, Any, None]:
        """Process body: wait for grants, execute, repeat.

        A grant whose lease deadline already passed while it sat in
        the inbox (the worker was stalled or backlogged) is dropped,
        not executed: its token is doomed, and starting it anyway
        keeps the worker one expiry behind forever — every attempt
        burns down ``MAX_ATTEMPTS`` without a single durable effect."""
        sim = self.sim
        inbox = self.inboxes[host]
        try:
            while True:
                got = inbox.get(
                    lambda message: message.kind == "grant")
                try:
                    grant = yield got
                except Interrupt as interrupt:
                    inbox.cancel(got)
                    if isinstance(interrupt.cause, WorkerStall):
                        yield sim.timeout(interrupt.cause.seconds)
                        continue
                    return
                if sim.now >= grant.expires:
                    self.stale_grants_dropped += 1
                    continue
                yield from self._execute(host, grant)
        except Interrupt:
            return

    def _execute(self, host: int,
                 grant: Message) -> Generator[Event, Any, None]:
        """One granted attempt: report start, work (renewing the lease
        every ``RENEW_EVERY``), then write the effect with bounded
        retries until some ack arrives.

        Stalls are absorbed here: work pauses, renewals stop, and the
        attempt *finishes late* — producing exactly the stale-write or
        late-accept races the log must survive."""
        sim = self.sim
        inbox = self.inboxes[host]
        job_id, token = grant.job_id, grant.token
        inbox.purge(lambda message: message.kind == "write-ack")
        self._post(host, 0, Message(kind="start", job_id=job_id,
                                    token=token, sender=host))
        remaining = grant.work
        while remaining > _WORK_EPS:
            chunk = min(RENEW_EVERY, remaining)
            chunk_started = sim.now
            try:
                yield sim.timeout(chunk)
            except Interrupt as interrupt:
                if isinstance(interrupt.cause, WorkerStall):
                    remaining -= sim.now - chunk_started
                    yield sim.timeout(interrupt.cause.seconds)
                    continue
                raise
            remaining -= chunk
            if remaining > _WORK_EPS:
                self._post(host, 0, Message(kind="renew", job_id=job_id,
                                            token=token, sender=host))
        value = get_job_kernel(grant.kernel)(grant.payload)
        for _attempt in range(WRITE_MAX_RETRIES + 1):
            self._post(host, 0, Message(kind="write", job_id=job_id,
                                        token=token, sender=host,
                                        value=value))
            got = inbox.get(
                lambda message, job=job_id, tok=token: (
                    message.kind == "write-ack"
                    and message.job_id == job
                    and message.token == tok))
            timer = sim.timeout(WRITE_RETRY_SECONDS)
            try:
                yield sim.any_of([got, timer])
            except Interrupt as interrupt:
                inbox.cancel(got)
                if isinstance(interrupt.cause, WorkerStall):
                    yield sim.timeout(interrupt.cause.seconds)
                    continue
                raise
            if got.triggered:
                return  # any outcome ends the attempt (fenced-out included)
            inbox.cancel(got)
        # Every retry timed out (partition, supervisor down too long):
        # stand down; the lease will expire and the job will requeue.
        self.write_giveups += 1

    # -- the supervisor ----------------------------------------------------

    def _supervisor_body(self) -> Generator[Event, Any, None]:
        """Process body: the tick loop.

        Order within a tick is fixed (and therefore deterministic):
        drain the mailbox, consume death declarations, sweep expired
        leases, fail/grant pending jobs, sleep."""
        sim = self.sim
        log = self.log
        inbox = self.inboxes[0]
        # Recovery: the volatile lease table is rebuilt from the log.
        self.leases = LeaseTable.rebuild(log, sim.now)
        try:
            while True:
                while len(inbox):
                    got = inbox.get()
                    self._handle_message(got.value)
                for record in self.monitor.pop_deaths():
                    self._handle_death(record)
                now = sim.now
                for lease in self.leases.expired(now):
                    self.leases.drop(lease.job_id)
                    log.expire(now, lease.job_id)
                yield from self._grant_pass()
                yield sim.timeout(TICK_INTERVAL)
        except Interrupt:
            return

    def _handle_message(self, message: Message) -> None:
        now = self.sim.now
        log = self.log
        if message.kind == "start":
            log.mark_running(now, message.job_id, message.token)
        elif message.kind == "renew":
            if log.renew(now, message.job_id, message.token, LEASE_SECONDS):
                self.leases.renew(message.job_id, now + LEASE_SECONDS)
        elif message.kind == "write":
            outcome = log.apply_effect(now, message.job_id, message.token,
                                       message.sender, message.value)
            if outcome == "applied":
                self.leases.drop(message.job_id)
            self._post(0, message.sender,
                       Message(kind="write-ack", job_id=message.job_id,
                               token=message.token, sender=0,
                               outcome=outcome))
        else:
            raise ValueError(
                f"supervisor received unexpected {message.kind!r}")

    def _handle_death(self, record: DeathRecord) -> None:
        """Act on a death *declaration* (which may be a partition's lie):
        requeue the victim's leases, activate a spare, dispatch repair."""
        now = self.sim.now
        node = record.node
        if node == 0:
            return  # the supervisor host cannot be partitioned from itself
        self.deaths_handled += 1
        for job_id in self.log.requeue_dead_worker(now, node):
            self.leases.drop(job_id)
        covered = False
        if node in self._serving:
            self._serving.remove(node)
            activated = self.spares.activate(record)
            if activated is not None:
                self._serving.append(activated)
                self._serving.sort()
                self.spare_activation_log.append((now, activated, node))
                covered = True
        else:
            self.spares.discard(node)
        self.monitor.repair(node)
        self._repair_covered[node] = covered
        self._repair_procs.append(self.sim.process(
            self._repair_body(node),
            name=f"jobs.repair{node}.{self.deaths_handled}"))

    def _repair_body(self, node: int) -> Generator[Event, Any, None]:
        """Process body: repair delay, then restore the node.

        A truly-crashed node comes back with a fresh worker process and
        an empty mailbox; a falsely-declared one was alive all along
        and simply rejoins.  If this death consumed a spare, the
        repaired node refills the pool; otherwise it rejoins service."""
        try:
            yield self.sim.timeout(self.config.repair_seconds)
        except Interrupt:
            return
        self.monitor.restore(node)
        process = self._workers.get(node)
        if process is None or not process.is_alive:
            self._spawn_worker(node, purge=True)
        if self._repair_covered.pop(node, False):
            self.spares.refill(node)
        else:
            self._serving.append(node)
            self._serving.sort()

    def _grant_pass(self) -> Generator[Event, Any, None]:
        """Fail exhausted jobs; lease the rest onto idle workers.

        The ``grant_commit_gap`` timeout between the durable grant and
        the grant *message* is the supervisor-crash-mid-grant window:
        an interrupt landing inside it leaves a granted-but-unsent
        lease that can only expire and requeue."""
        sim = self.sim
        cfg = self.config
        log = self.log
        idle = self._idle_workers()
        for job_id in log.pending():
            row = log.rows[job_id]
            if row.attempts >= MAX_ATTEMPTS:
                log.fail(sim.now, job_id, "attempts-exhausted")
                continue
            if not idle:
                continue
            worker = idle.pop(0)
            lease = log.grant(sim.now, job_id, worker, LEASE_SECONDS)
            self.leases.add(lease)
            if cfg.grant_commit_gap > 0:
                yield sim.timeout(cfg.grant_commit_gap)
            self._post(0, worker,
                       Message(kind="grant", job_id=job_id,
                               token=lease.token, sender=0,
                               kernel=row.kernel, payload=row.payload,
                               work=row.work_seconds,
                               expires=lease.expires_at))

    def _idle_workers(self) -> List[int]:
        """Serving workers with no active lease, believed available —
        belief meaning the membership view, never ground truth."""
        busy = set(self.leases.busy_workers())
        membership = self.monitor.membership
        return [host for host in self._serving
                if host not in busy and membership.is_available(host)]

    # -- messaging ---------------------------------------------------------

    def _post(self, src: int, dst: int, message: Message) -> None:
        """Fire-and-forget one message transfer into ``dst``'s mailbox
        (loss is the retry loops' problem, exactly as on a real
        network).  The message is a :class:`_Post` task, not a process:
        nothing waits on it."""
        self._msg_seq += 1
        self.messages_sent += 1
        _Post(self, src, dst, message, f"jobs.msg{self._msg_seq}")

    # -- metrics -----------------------------------------------------------

    def publish(self, obs: Observability) -> None:
        """Push the service's summary metrics into a registry."""
        if not obs.enabled:
            return
        log = self.log
        gauges = {
            "jobs.submitted": float(log.submissions),
            "jobs.deduped": float(log.dedup_hits),
            "jobs.grants": float(log.grants),
            "jobs.lease_renewals": float(log.renewals),
            "jobs.renew_rejections": float(log.renew_rejections),
            "jobs.lease_expiries": float(log.expiries),
            "jobs.requeues": float(log.requeues),
            "jobs.completed": float(log.completed),
            "jobs.failed": float(log.failed),
            "jobs.supervisor_restarts": float(
                self.supervisor_incarnations - 1),
            "jobs.messages_lost": float(self.messages_lost),
            "jobs.write_giveups": float(self.write_giveups),
            "jobs.stale_grants_dropped": float(self.stale_grants_dropped),
            "jobs.spare_activations": float(self.spares.activations),
            "jobs.false_spare_activations": float(
                self.spares.false_activations),
        }
        for name in sorted(gauges):
            obs.metrics.gauge(name).set(gauges[name])
        for kind, count in (("stale", log.rejections_stale),
                            ("duplicate", log.rejections_duplicate),
                            ("closed", log.rejections_closed)):
            obs.metrics.gauge("jobs.fencing_rejections",
                              kind=kind).set(float(count))
        self.monitor.publish(obs)


class _Post(Task):
    """One service message on the fabric, delivered into the
    destination host's mailbox unless the fabric loses it."""

    __slots__ = ("service", "src", "dst", "message")

    def __init__(self, service: JobService, src: int, dst: int,
                 message: Message, name: str) -> None:
        self.service = service
        self.src = src
        self.dst = dst
        self.message = message
        super().__init__(service.sim, name)

    def run(self) -> None:
        """Put the message on the fabric."""
        self.service.fabric.send(self.src, self.dst, MESSAGE_BYTES,
                                 self._arrived, self.name)

    def _arrived(self, result: Any) -> None:
        service = self.service
        if isinstance(result, Exception):
            service.messages_lost += 1
            return
        service.inboxes[self.dst].put(self.message)
        service.messages_delivered += 1
