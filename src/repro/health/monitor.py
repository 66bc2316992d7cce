"""The heartbeat monitor: failure detection *through the fabric*.

Every node emits a small heartbeat transfer to the monitor host every
``heartbeat_interval`` seconds, in its slot of the interval, through the
same :class:`~repro.network.fabric.Fabric` the application uses, so link
outages, congestion, drops, and partitions delay or lose heartbeats
exactly as they would real ones.  One slot-driver process schedules the
whole fleet's beats (the same driver runs gossip's probe rounds, see
:class:`MembershipMonitor`).  A beat is not a process: it is a
:class:`~repro.sim.engine.Task` that hands its transfer to
:meth:`~repro.network.fabric.Fabric.send`, so it costs one start event
and no end event.  A periodic checker polls the pluggable
:class:`~repro.health.detectors.FailureDetector` and drives the
:class:`~repro.health.state.Membership` state machine: silence earns
``SUSPECTED``, prolonged silence ``DEAD``, resumed heartbeats refute a
suspicion back to ``HEALTHY``.

Crucially the monitor has **no oracle**: when a partition silences a
live node, the node is *falsely* suspected (and, if the partition
outlives the detector's patience, falsely declared dead).  Supervisors
that act on a death declaration must therefore be safe against acting
on a lie — which is exactly what the detection-driven campaign mode in
:mod:`repro.fault.campaign` proves.

Ground truth (which nodes actually crashed, via :meth:`HeartbeatMonitor.
crash`) silences the crashed node's own beats and feeds the metrics —
mean time-to-detect and the false-positive counters — but the detection
path never consults it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Generator, List, Optional, Tuple

from repro.health.detectors import (
    FailureDetector,
    FixedTimeoutDetector,
    PhiAccrualDetector,
    Verdict,
)
from repro.health.state import HealthEvent, Membership, NodeHealthState
from repro.network.fabric import Fabric
from repro.obs import Observability
from repro.sim.engine import Interrupt, Process, Simulator, Task
from repro.sim.event import Event

__all__ = [
    "DeathRecord",
    "DetectionOutcome",
    "DetectionSpec",
    "HeartbeatMonitor",
    "MembershipMonitor",
]

#: Bytes in one heartbeat; gossip charges the same fixed header for
#: every ping, ack and ping-req.
HEARTBEAT_BYTES = 64


@dataclass(frozen=True)
class DetectionSpec:
    """Declarative configuration of a failure detector deployment.

    ``detector`` selects the algorithm: ``"fixed"`` and ``"phi"`` run
    the central :class:`HeartbeatMonitor` with the matching verdict
    function; ``"gossip"`` runs the decentralized SWIM protocol in
    :class:`~repro.health.gossip.GossipMonitor` (build either through
    :func:`~repro.health.gossip.build_monitor`).
    Threshold fields left ``None`` derive from the heartbeat interval:
    ``suspect_after`` defaults to 3 intervals and ``dead_after`` to 8.
    The defaults are deliberately conservative; bench E21 sweeps them.
    The central checker runs every half interval, and ``"phi"`` uses
    :class:`~repro.health.detectors.PhiAccrualDetector`'s own window and
    thresholds.

    For gossip, ``heartbeat_interval`` is the protocol period (one probe
    per node per period), ``effective_dead_after`` the suspicion
    timeout, and ``heartbeat_slots`` the slotted probe-round discipline;
    the rest of the protocol's shape is fixed in
    :mod:`repro.health.gossip`.

    ``heartbeat_slots`` is the number ``S`` of evenly-spaced slots per
    interval that one driver process walks; node ``n`` beats (or
    probes) in slot ``n % S``.  ``None`` (the default) means one slot
    per node, so node ``n`` keeps its own phase
    ``interval * (n + 1) / (nodes + 1)``: the one-probe-per-member-per-
    period discipline of SWIM.  A smaller ``S`` has the engine service
    ``S`` timer events per interval instead of one per node, which is
    what makes 10^4-node monitoring tractable.  Nodes sharing a slot
    beat at the same instant (deliberately: the calendar queue delivers
    a same-instant batch in one walk).
    """

    detector: str = "fixed"
    heartbeat_interval: float = 2e-4
    monitor_host: int = 0
    suspect_after: Optional[float] = None
    dead_after: Optional[float] = None
    heartbeat_slots: Optional[int] = None

    def __post_init__(self) -> None:
        if self.detector not in ("fixed", "phi", "gossip"):
            raise ValueError(
                f"unknown detector {self.detector!r} "
                "(fixed, phi or gossip)")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.monitor_host < 0:
            raise ValueError("monitor_host must be >= 0")
        for name in ("suspect_after", "dead_after"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None")
        if self.heartbeat_slots is not None and self.heartbeat_slots < 1:
            raise ValueError("heartbeat_slots must be >= 1 or None")

    @property
    def effective_suspect_after(self) -> float:
        """Fixed-detector suspicion threshold in seconds."""
        if self.suspect_after is not None:
            return self.suspect_after
        return 3.0 * self.heartbeat_interval

    @property
    def effective_dead_after(self) -> float:
        """Fixed-detector death threshold in seconds."""
        if self.dead_after is not None:
            return self.dead_after
        return 8.0 * self.heartbeat_interval

    def build_detector(self) -> FailureDetector:
        """Instantiate the configured central detector."""
        if self.detector == "gossip":
            raise ValueError(
                "gossip is a decentralized protocol with no central "
                "detector; build a GossipMonitor via "
                "repro.health.build_monitor")
        if self.detector == "phi":
            return PhiAccrualDetector(
                bootstrap_interval=self.heartbeat_interval)
        return FixedTimeoutDetector(
            suspect_after=self.effective_suspect_after,
            dead_after=self.effective_dead_after,
        )


@dataclass(frozen=True)
class DeathRecord:
    """One death declaration.  ``crashed_at`` is ground truth for
    metrics: the actual crash time, or ``None`` for a false positive."""

    node: int
    declared_at: float
    crashed_at: Optional[float]

    @property
    def false_positive(self) -> bool:
        """True when the declared-dead node was actually alive."""
        return self.crashed_at is None

    @property
    def detect_seconds(self) -> float:
        """Crash-to-declaration latency (NaN for a false positive)."""
        if self.crashed_at is None:
            return float("nan")
        return self.declared_at - self.crashed_at


@dataclass(frozen=True)
class DetectionOutcome:
    """What one monitored run measured, for reports and determinism
    tests (``health_log`` is the canonical membership event log)."""

    detections: Tuple[DeathRecord, ...]
    false_suspicions: int
    false_deaths: int
    mttd_seconds: float
    availability: float
    heartbeats_sent: int
    heartbeats_lost: int
    heartbeats_delivered: int
    epoch: int
    health_log: Tuple[str, ...]


class MembershipMonitor:
    """Shared chassis of every fabric-driven failure detector.

    Owns the pieces that are the same whether detection is central
    (:class:`HeartbeatMonitor`) or decentralized
    (:class:`~repro.health.gossip.GossipMonitor`): the epoch'd
    :class:`~repro.health.state.Membership` machine, ground-truth crash
    bookkeeping (never consulted by detection), the death declaration
    queue + notice event, traffic counters, the supervisor surface
    (:meth:`crash`, :meth:`repair`, :meth:`drain`, :meth:`pop_deaths`,
    :meth:`outcome`, …) and the one slot driver that schedules every
    node's periodic work.  Subclasses implement :meth:`_tick` (one
    node's heartbeat or probe round) and :meth:`restore`.

    ``heartbeats_sent``/``lost``/``delivered`` count *detector messages
    on the fabric* — heartbeats for the central monitor, pings, acks and
    ping-reqs for gossip — so bytes-on-wire comparisons between the two
    designs read off the same counters.
    """

    #: Process name of the slot driver.
    _driver_name: ClassVar[str]

    def __init__(self, sim: Simulator, fabric: Fabric, nodes: int,
                 spec: Optional[DetectionSpec] = None) -> None:
        if nodes < 1:
            raise ValueError("need at least one monitored node")
        self.spec = spec if spec is not None else DetectionSpec()
        if nodes > fabric.topology.hosts:
            raise ValueError(
                f"{nodes} monitored nodes but fabric has only "
                f"{fabric.topology.hosts} hosts")
        self.sim = sim
        self.fabric = fabric
        self.nodes = nodes
        self.membership = Membership(nodes, now=sim.now)
        #: Death declarations not yet consumed by a supervisor.
        self.pending_deaths: List[DeathRecord] = []
        #: Every death declaration, in order (real and false).
        self.deaths: List[DeathRecord] = []
        self.false_suspicions = 0
        self.false_deaths = 0
        self.heartbeats_sent = 0
        self.heartbeats_lost = 0
        self.heartbeats_delivered = 0
        #: Ground truth: crashed node -> crash time.  The slot driver skips
        #: these nodes (a dead node sends nothing) by membership test, so
        #: dict order cannot leak into the schedule.
        self._crashed: Dict[int, float] = {}
        self._death_event: Event = sim.event("node-death")
        self._death_event.defused = True
        self._started = False
        self._slot_driver: Optional[Process] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the slot driver that runs every node's periodic work."""
        if self._started:
            raise RuntimeError("monitor already started")
        self._started = True
        self._slot_driver = self.sim.process(
            self._slot_driver_body(), name=self._driver_name)

    def stop(self) -> None:
        """Interrupt every live monitor process (clean shutdown so open
        spans close and the queue can quiesce)."""
        if self._slot_driver is not None and self._slot_driver.is_alive:
            self._slot_driver.interrupt("monitor-stop")

    # -- supervisor surface ------------------------------------------------

    def crash(self, node: int) -> None:
        """Ground truth: ``node`` just died.  Its periodic work stops and
        the time is recorded for MTTD metrics; detection itself must come
        from the protocol, never from here."""
        if not 0 <= node < self.nodes:
            raise IndexError(f"node {node} out of range [0, {self.nodes})")
        if node in self._crashed:
            return
        self._crashed[node] = self.sim.now

    def restore(self, node: int) -> HealthEvent:
        """Repair finished: bring ``node`` back to HEALTHY service."""
        raise NotImplementedError

    @property
    def crashed_nodes(self) -> Tuple[int, ...]:
        """Nodes currently down for real (cleared by :meth:`restore`)."""
        return tuple(sorted(self._crashed))

    def repair(self, node: int) -> HealthEvent:
        """Dispatch repair for a declared-dead node (DEAD -> REPAIRING)."""
        return self._transition(node, NodeHealthState.REPAIRING, "repair")

    def drain(self, node: int) -> HealthEvent:
        """Administratively drain a healthy node."""
        return self._transition(node, NodeHealthState.DRAINING, "drain")

    def undrain(self, node: int) -> HealthEvent:
        """Cancel an administrative drain."""
        return self._transition(node, NodeHealthState.HEALTHY, "undrain")

    def death_notice(self) -> Event:
        """The event that fires at the *next* death declaration (the
        same replaced-event pattern as ``CommWorld.failure_notice``)."""
        return self._death_event

    def pop_deaths(self) -> List[DeathRecord]:
        """Drain and return unconsumed death declarations, in order."""
        deaths, self.pending_deaths = self.pending_deaths, []
        return deaths

    # -- metrics -----------------------------------------------------------

    def mttd_seconds(self) -> float:
        """Mean time-to-detect over real detections (NaN when none)."""
        real = [d.detect_seconds for d in self.deaths
                if not d.false_positive]
        if not real:
            return float("nan")
        return sum(real) / len(real)

    def outcome(self) -> DetectionOutcome:
        """Freeze this run's detection measurements."""
        return DetectionOutcome(
            detections=tuple(self.deaths),
            false_suspicions=self.false_suspicions,
            false_deaths=self.false_deaths,
            mttd_seconds=self.mttd_seconds(),
            availability=self.membership.availability(self.sim.now),
            heartbeats_sent=self.heartbeats_sent,
            heartbeats_lost=self.heartbeats_lost,
            heartbeats_delivered=self.heartbeats_delivered,
            epoch=self.membership.epoch,
            health_log=tuple(
                event.line() for event in self.membership.events),
        )

    def publish(self, obs: Observability) -> None:
        """Push summary gauges into an observability registry."""
        if not obs.enabled:
            return
        metrics = obs.metrics
        real = [d for d in self.deaths if not d.false_positive]
        if real:
            metrics.gauge("health.mttd_mean_seconds").set(
                self.mttd_seconds())
        metrics.gauge("health.deaths").set(float(len(self.deaths)))
        metrics.gauge("health.false_suspicions").set(
            float(self.false_suspicions))
        metrics.gauge("health.false_deaths").set(float(self.false_deaths))
        metrics.gauge("health.availability").set(
            self.membership.availability(self.sim.now))
        metrics.gauge("health.epoch").set(float(self.membership.epoch))
        metrics.gauge("health.heartbeats.sent").set(
            float(self.heartbeats_sent))
        metrics.gauge("health.heartbeats.lost").set(
            float(self.heartbeats_lost))
        metrics.gauge("health.heartbeats.delivered").set(
            float(self.heartbeats_delivered))

    # -- internals ---------------------------------------------------------

    def _transition(self, node: int, new: NodeHealthState,
                    cause: str) -> HealthEvent:
        event = self.membership.transition(node, new, self.sim.now, cause)
        obs = self.sim.obs
        if obs.enabled:
            obs.instant("health.transition", node=node,
                        old=event.old.value, new=event.new.value,
                        cause=cause)
            obs.metrics.counter("health.transitions").inc()
        return event

    def _declare_death(self, node: int, now: float) -> DeathRecord:
        """Record a death declaration (the membership transition to DEAD
        is the caller's job, with its protocol-specific cause) and fire
        the death notice."""
        crashed_at = self._crashed.get(node)
        record = DeathRecord(node=node, declared_at=now,
                             crashed_at=crashed_at)
        self.deaths.append(record)
        self.pending_deaths.append(record)
        obs = self.sim.obs
        if obs.enabled:
            if crashed_at is None:
                obs.metrics.counter("health.false_deaths").inc()
            else:
                obs.metrics.histogram("health.mttd_seconds").observe(
                    now - crashed_at)
        if crashed_at is None:
            self.false_deaths += 1
        notice, self._death_event = (
            self._death_event, self.sim.event("node-death"))
        self._death_event.defused = True
        notice.succeed(record)
        return record

    def _tick(self, node: int) -> None:
        """Slot-driver hook: ``node``'s periodic work for one interval."""
        raise NotImplementedError

    def _slot_driver_body(self) -> Generator[Event, Any, None]:
        """Process body: one timer wheel for the whole fleet.

        Each interval is divided into ``S`` evenly-spaced ticks
        (``heartbeat_slots``, or one per node when unset); every tick
        calls :meth:`_tick` for each live node in that slot (node ``n``
        is in slot ``n % S``), so the engine services ``S`` timer events
        per interval and each tick's work lands on the calendar queue as
        one same-instant batch.  Slot targets are recomputed from the
        cycle index every interval (not accumulated), so float error
        does not drift the schedule, and a restored node rejoins its own
        slot.
        """
        interval = self.spec.heartbeat_interval
        nodes = self.nodes
        slots = self.spec.heartbeat_slots or nodes
        spacing = interval / (slots + 1)
        base = self.sim.now
        crashed = self._crashed
        tick = self._tick
        cycle = 0
        try:
            while True:
                start = base + cycle * interval
                for s in range(slots):
                    delay = (start + spacing * (s + 1)) - self.sim.now
                    if delay > 0.0:
                        yield self.sim.timeout(delay)
                    for node in range(s, nodes, slots):
                        if node not in crashed:
                            tick(node)
                cycle += 1
        except Interrupt:
            return


class HeartbeatMonitor(MembershipMonitor):
    """Runs the heartbeat slot driver and the detection checker.

    Lifecycle: construct, :meth:`start`, then drive the simulator (the
    monitor's processes keep the event queue non-empty forever — use
    ``sim.run(until=...)`` or the ``stop`` predicate, never a bare
    ``sim.run()``).  A supervisor that kills a node calls :meth:`crash`
    (stops its heartbeats; the *detector* must still notice), and after
    acting on a death declaration calls :meth:`repair` then
    :meth:`restore` to bring the node back.
    """

    _driver_name = "hb.slots"

    def __init__(self, sim: Simulator, fabric: Fabric, nodes: int,
                 spec: Optional[DetectionSpec] = None) -> None:
        super().__init__(sim, fabric, nodes, spec)
        if self.spec.monitor_host >= fabric.topology.hosts:
            raise ValueError(
                f"monitor_host {self.spec.monitor_host} not a fabric host")
        self.detector = self.spec.build_detector()
        self._checker: Optional[Process] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the slot driver, seed the detector and spawn the
        checker."""
        super().start()
        now = self.sim.now
        for node in range(self.nodes):
            self.detector.reset(node, now)
        self._checker = self.sim.process(self._check_body(), name="hb.check")

    def stop(self) -> None:
        """Interrupt the slot driver and the checker."""
        super().stop()
        if self._checker is not None and self._checker.is_alive:
            self._checker.interrupt("monitor-stop")

    # -- supervisor surface ------------------------------------------------

    def restore(self, node: int) -> HealthEvent:
        """Repair finished: node back to HEALTHY, detector history reset,
        heartbeats resumed in the node's own slot."""
        event = self._transition(node, NodeHealthState.HEALTHY, "restored")
        self._crashed.pop(node, None)
        self.detector.reset(node, self.sim.now)
        return event

    # -- internals ---------------------------------------------------------

    def _tick(self, node: int) -> None:
        """Slot-driver hook: emit one heartbeat from ``node``."""
        self.heartbeats_sent += 1
        _Heartbeat(self, node)

    def _check_body(self) -> Generator[Event, Any, None]:
        """Process body: poll the detector and drive the state machine
        every half heartbeat interval."""
        interval = self.spec.heartbeat_interval / 2.0
        try:
            while True:
                yield self.sim.timeout(interval)
                now = self.sim.now
                for node in range(self.nodes):
                    self._check_node(node, now)
        except Interrupt:
            return

    def _check_node(self, node: int, now: float) -> None:
        state = self.membership.state_of(node)
        if state in (NodeHealthState.DEAD, NodeHealthState.REPAIRING):
            return
        verdict = self.detector.assess(node, now)
        if verdict is Verdict.TRUST:
            if state is NodeHealthState.SUSPECTED:
                self._transition(node, NodeHealthState.HEALTHY,
                                 "heartbeat-resumed")
            return
        if state in (NodeHealthState.HEALTHY, NodeHealthState.DRAINING):
            self._transition(node, NodeHealthState.SUSPECTED,
                             "missed-heartbeats")
            if node not in self._crashed:
                self.false_suspicions += 1
                obs = self.sim.obs
                if obs.enabled:
                    obs.metrics.counter("health.false_suspicions").inc()
        if verdict is Verdict.DEAD:
            self._transition(node, NodeHealthState.DEAD, "silence-confirmed")
            self._declare_death(node, now)


class _Heartbeat(Task):
    """One heartbeat transfer, ``node`` -> the monitor host.

    Detached, so a crash mid-flight cannot leak fabric resources: the
    in-flight packet completes or is lost on its own, exactly like
    application traffic."""

    __slots__ = ("monitor", "node")

    def __init__(self, monitor: HeartbeatMonitor, node: int) -> None:
        self.monitor = monitor
        self.node = node
        super().__init__(monitor.sim, f"hb{node}")

    def run(self) -> None:
        """Put the heartbeat on the fabric."""
        monitor = self.monitor
        monitor.fabric.send(self.node, monitor.spec.monitor_host,
                            HEARTBEAT_BYTES, self._arrived, self.name)

    def _arrived(self, result: Any) -> None:
        monitor = self.monitor
        if isinstance(result, Exception):
            monitor.heartbeats_lost += 1
            return
        monitor.heartbeats_delivered += 1
        monitor.detector.observe(self.node, monitor.sim.now)
