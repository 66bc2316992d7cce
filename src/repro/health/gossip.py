"""SWIM-style gossip membership: decentralized failure detection.

The central :class:`~repro.health.monitor.HeartbeatMonitor` funnels
O(cluster) fabric transfers per interval into one host — the dominant
detection hotspot at 10^4+ nodes and a single point of failure one
partition can blind entirely.  :class:`GossipMonitor` removes both: every
node runs the SWIM probe loop (Das, Gupta & Motivala, 2002) and
membership state rides *on* the probe traffic, so detection load is O(1)
per node per protocol period and no single host or link is load-bearing.

Protocol, per node ``i`` and period ``T`` (``heartbeat_interval``):

1. **Randomized round-robin direct probe.**  ``i`` picks the next target
   ``t`` from a full pseudo-random sweep of the membership (an affine
   walk ``(a*pos + b) mod n`` with ``gcd(a, n) == 1``, reshuffled each
   sweep from ``i``'s named RNG stream) and sends a ping through the
   real :class:`~repro.network.fabric.Fabric`.  A live, reachable ``t``
   acks immediately.
2. **Indirect probes.**  No ack a third of the way into the period:
   ``i`` asks ``K_INDIRECT`` randomly chosen relays to ping ``t`` on its
   behalf (``ping-req``), buying per-link routing diversity — one bad
   link between ``i`` and ``t`` cannot by itself manufacture a
   suspicion.
3. **Suspicion, not execution.**  Still no ack by the period's end:
   ``i`` *suspects* ``t`` at ``t``'s current incarnation and starts a
   suspicion timer (``effective_dead_after``).  If the rumour reaches a
   live ``t``, it refutes by re-announcing itself alive at a higher
   incarnation; if the timer expires unrefuted, ``i`` declares ``t``
   dead.
4. **Piggybacked dissemination.**  Every ping/ack/ping-req carries up to
   ``PIGGYBACK_LIMIT`` membership updates, each retransmitted
   ``ceil(RETRANSMIT_FACTOR * log2(n + 1))`` times, fewest-sent first —
   the epidemic broadcast that spreads verdicts in O(log n) periods
   with zero dedicated traffic.

Update precedence is Serf-style: a higher incarnation wins outright, and
ties go to the graver status (dead > suspect > alive), so a restored
node rejoins by announcing a fresh incarnation.

Determinism: all randomness comes from per-node named
:class:`~repro.sim.rng.RandomStreams` streams (``health.gossip.n<i>``),
updates are applied in the (deterministic) simulator event order, and
piggyback selection sorts by (remaining budget, subject id) — so the
epoch'd membership log is byte-canonical across same-seed runs and
DetSan double-runs hold.

One modelling honesty note: the *global* membership machine this class
drives is an omniscient aggregation of every update any node creates —
the view a perfect observer subscribed to all gossip would hold.  A
partitioned minority keeps probing inside its island, so its (honest,
false) suspicions of the unreachable majority also land in the log;
that is the designed behaviour — minorities degrade instead of going
dark — and bench E23 measures exactly that contrast against the
blinded central monitor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.health.monitor import (
    HEARTBEAT_BYTES,
    DetectionSpec,
    HeartbeatMonitor,
    MembershipMonitor,
)
from repro.health.state import HealthEvent, NodeHealthState
from repro.network.fabric import Fabric
from repro.obs import Observability
from repro.sim.engine import Interrupt, Simulator, Task
from repro.sim.event import Event
from repro.sim.rng import RandomStreams

__all__ = [
    "GossipMonitor",
    "GossipStats",
    "GossipStatus",
    "build_monitor",
]


class GossipStatus(enum.IntEnum):
    """A disseminated belief about one node; ordering is severity."""

    ALIVE = 0
    SUSPECT = 1
    DEAD = 2


#: Relays asked to ping a target whose direct probe went unacked
#: (SWIM's ``k``).
K_INDIRECT = 3
#: Most membership updates one ping, ack or ping-req carries.
PIGGYBACK_LIMIT = 8
#: Wire bytes each piggybacked update adds to a message's
#: ``HEARTBEAT_BYTES`` header.
BYTES_PER_UPDATE = 16
#: SWIM's ``lambda``: an update is retransmitted
#: ``ceil(RETRANSMIT_FACTOR * log2(n + 1))`` times.
RETRANSMIT_FACTOR = 3.0

#: A member's default entry: alive at incarnation zero (never stored).
_FRESH: Tuple[GossipStatus, int] = (GossipStatus.ALIVE, 0)


def _wins(status: GossipStatus, incarnation: int,
          entry: Tuple[GossipStatus, int]) -> bool:
    """Does ``(status, incarnation)`` override ``entry``?

    Higher incarnation wins outright (this is what lets a restored node
    rejoin over its own death rumour); at equal incarnations the graver
    status wins; ties never override.
    """
    old_status, old_incarnation = entry
    if incarnation != old_incarnation:
        return incarnation > old_incarnation
    return status > old_status


@dataclass(frozen=True)
class GossipStats:
    """Wire-level accounting of one gossip run, for bench E23.

    ``bytes_sent``/``bytes_received`` aggregate the whole fleet;
    ``max_node_bytes_sent`` is the busiest single node's *outbound*
    detector traffic — the number whose flatness across cluster sizes
    is the O(1)-per-node claim.  ``dissemination_half_seconds`` holds,
    for each tracked update, how long it took to reach half the fleet.
    """

    probes: int
    indirect_probes: int
    probe_timeouts: int
    suspicions: int
    refutations: int
    messages_sent: int
    messages_delivered: int
    messages_lost: int
    bytes_sent: int
    bytes_received: int
    max_node_bytes_sent: int
    mean_node_bytes_sent: float
    dissemination_half_seconds: Tuple[float, ...]


class GossipMonitor(MembershipMonitor):
    """Decentralized SWIM membership over the real fabric.

    Same lifecycle and supervisor surface as
    :class:`~repro.health.monitor.HeartbeatMonitor` — construct,
    :meth:`start`, drive the simulator with ``until=``/``stop=``, feed
    ground truth through :meth:`crash`, consume declarations through
    :meth:`pop_deaths`, recover through :meth:`repair` +
    :meth:`restore` — so campaign supervisors, spare pools and the CLI
    swap detectors by flipping ``DetectionSpec.detector``.

    Probe rounds run on the shared slot driver exactly as heartbeats
    do: ``spec.heartbeat_slots`` unset gives each node its own slot and
    phase in the period, an integer ``S`` has the fleet share ``S``
    slots per period (node ``n`` probes in slot ``n % S``) — the
    discipline that makes 10^4-node gossip affordable on the calendar
    event queue.
    """

    _driver_name = "gs.slots"

    def __init__(self, sim: Simulator, fabric: Fabric, nodes: int,
                 spec: Optional[DetectionSpec] = None,
                 streams: Optional[RandomStreams] = None) -> None:
        if spec is None:
            spec = DetectionSpec(detector="gossip")
        if spec.detector != "gossip":
            raise ValueError(
                f"GossipMonitor needs detector='gossip', got "
                f"{spec.detector!r}")
        super().__init__(sim, fabric, nodes, spec)
        self.streams = streams if streams is not None else RandomStreams(0)
        #: Retransmissions per update: the SWIM lambda * log2(n) budget.
        self.retransmit_budget = max(1, math.ceil(
            RETRANSMIT_FACTOR * math.log2(nodes + 1)))
        #: Per-node deviations from "alive at incarnation 0" (sparse).
        self._views: List[Dict[int, Tuple[GossipStatus, int]]] = [
            {} for _ in range(nodes)]
        #: Per-node dissemination queue: subject -> [status, inc, left],
        #: the status a :class:`GossipStatus` member.
        self._queues: List[Dict[int, List[Any]]] = [
            {} for _ in range(nodes)]
        #: Each node's own incarnation number (bumped to refute).
        self._incarnation: List[int] = [0] * nodes
        #: The omniscient aggregation of every *created* update.
        self._winning: Dict[int, Tuple[GossipStatus, int]] = {}
        #: Affine sweep state per node: (a, b, position) or None.
        self._sweeps: List[Optional[Tuple[int, int, int]]] = [None] * nodes
        self._rngs: Dict[int, Any] = {}
        #: In-flight dissemination tracking: update key -> (created_at,
        #: appliers).  Only created (rare) updates are tracked, so the
        #: steady state costs nothing.
        self._spread: Dict[Tuple[int, int, int],
                           Tuple[float, Set[int]]] = {}
        self._spread_goal = max(2, nodes // 2)
        self.probes = 0
        self.indirect_probes = 0
        self.probe_timeouts = 0
        self.suspicions = 0
        self.refutations = 0
        self.bytes_sent_by: List[int] = [0] * nodes
        self.bytes_received_by: List[int] = [0] * nodes
        self.dissemination_half_seconds: List[float] = []

    # -- supervisor surface ------------------------------------------------

    def restore(self, node: int) -> HealthEvent:
        """Repair finished: node probes again in its own slot, at a fresh
        incarnation that overrides any death rumour still circulating."""
        event = self._transition(node, NodeHealthState.HEALTHY, "restored")
        rebooted = self._crashed.pop(node, None) is not None
        if rebooted:
            # A rebooted node forgets what it believed about the fleet.
            self._views[node] = {}
            self._queues[node] = {}
            self._sweeps[node] = None
        winning = self._winning.get(node, _FRESH)
        incarnation = max(self._incarnation[node], winning[1]) + 1
        self._incarnation[node] = incarnation
        # Pre-seed the aggregate so the rejoin announcement below cannot
        # re-drive the membership machine (the supervisor just did).
        self._winning[node] = (GossipStatus.ALIVE, incarnation)
        self._create_update(node, node, GossipStatus.ALIVE, incarnation)
        return event

    # -- metrics -----------------------------------------------------------

    def gossip_stats(self) -> GossipStats:
        """Freeze the wire-level protocol accounting."""
        total_sent = sum(self.bytes_sent_by)
        return GossipStats(
            probes=self.probes,
            indirect_probes=self.indirect_probes,
            probe_timeouts=self.probe_timeouts,
            suspicions=self.suspicions,
            refutations=self.refutations,
            messages_sent=self.heartbeats_sent,
            messages_delivered=self.heartbeats_delivered,
            messages_lost=self.heartbeats_lost,
            bytes_sent=total_sent,
            bytes_received=sum(self.bytes_received_by),
            max_node_bytes_sent=max(self.bytes_sent_by),
            mean_node_bytes_sent=total_sent / self.nodes,
            dissemination_half_seconds=tuple(
                self.dissemination_half_seconds),
        )

    def publish(self, obs: Observability) -> None:
        """Push the shared health gauges plus the gossip extras."""
        super().publish(obs)
        if not obs.enabled:
            return
        metrics = obs.metrics
        stats = self.gossip_stats()
        metrics.gauge("health.gossip.probes").set(float(stats.probes))
        metrics.gauge("health.gossip.indirect_probes").set(
            float(stats.indirect_probes))
        metrics.gauge("health.gossip.probe_timeouts").set(
            float(stats.probe_timeouts))
        metrics.gauge("health.gossip.suspicions").set(
            float(stats.suspicions))
        metrics.gauge("health.gossip.refutations").set(
            float(stats.refutations))
        metrics.gauge("health.gossip.bytes_sent").set(
            float(stats.bytes_sent))
        metrics.gauge("health.gossip.max_node_bytes_sent").set(
            float(stats.max_node_bytes_sent))
        if stats.dissemination_half_seconds:
            mean = (sum(stats.dissemination_half_seconds)
                    / len(stats.dissemination_half_seconds))
            metrics.gauge(
                "health.gossip.dissemination_half_seconds").set(mean)

    # -- probe scheduling --------------------------------------------------

    def _tick(self, node: int) -> None:
        """Slot-driver hook: start one probe round for ``node`` (no-op
        with no target)."""
        target = self._next_target(node)
        if target is None:
            return
        self.probes += 1
        _ProbeRound(self, node, target)

    # -- target selection --------------------------------------------------

    def _rng(self, node: int) -> Any:
        generator = self._rngs.get(node)
        if generator is None:
            generator = self.streams.get(f"health.gossip.n{node}")
            self._rngs[node] = generator
        return generator

    def _draw_sweep(self, node: int) -> Tuple[int, int, int]:
        """A fresh affine full-membership sweep for ``node``: visit
        order ``(a * position + b) mod n`` with ``gcd(a, n) == 1`` is a
        permutation of the fleet — randomized round-robin in O(1)
        memory per node."""
        rng = self._rng(node)
        n = self.nodes
        a = 1
        if n > 2:
            while True:
                a = int(rng.integers(1, n))
                if math.gcd(a, n) == 1:
                    break
        b = int(rng.integers(0, n)) if n > 1 else 0
        return (a, b, 0)

    def _next_target(self, node: int) -> Optional[int]:
        """The next probe target in ``node``'s randomized round-robin
        (skips itself and nodes it believes dead; ``None`` when no
        probeable peer remains)."""
        n = self.nodes
        if n < 2:
            return None
        view = self._views[node]
        sweep = self._sweeps[node]
        for _ in range(n + 1):
            if sweep is None or sweep[2] >= n:
                sweep = self._draw_sweep(node)
            a, b, position = sweep
            target = (a * position + b) % n
            sweep = (a, b, position + 1)
            if target == node:
                continue
            entry = view.get(target)
            if entry is not None and entry[0] is GossipStatus.DEAD:
                continue
            self._sweeps[node] = sweep
            return target
        self._sweeps[node] = sweep
        return None

    def _pick_relays(self, node: int, target: int) -> List[int]:
        """Up to ``K_INDIRECT`` distinct relays for an indirect probe
        (never the prober or the target, never a believed-dead node)."""
        n = self.nodes
        k = min(K_INDIRECT, max(n - 2, 0))
        if k <= 0:
            return []
        rng = self._rng(node)
        view = self._views[node]
        chosen: List[int] = []
        attempts = 0
        while len(chosen) < k and attempts < 16 * k + 8:
            attempts += 1
            relay = int(rng.integers(0, n))
            if relay == node or relay == target or relay in chosen:
                continue
            entry = view.get(relay)
            if entry is not None and entry[0] is GossipStatus.DEAD:
                continue
            chosen.append(relay)
        return chosen

    # -- update plumbing ---------------------------------------------------

    def _select_updates(self, node: int
                        ) -> List[Tuple[int, GossipStatus, int]]:
        """Pick up to ``PIGGYBACK_LIMIT`` updates from ``node``'s
        dissemination queue, fewest-sent first (ties by subject id, so
        the choice is deterministic), and charge their budgets."""
        queue = self._queues[node]
        if not queue:
            return []
        picked = list(queue.items())
        if len(picked) > 1:
            picked.sort(key=lambda item: (-item[1][2], item[0]))
            del picked[PIGGYBACK_LIMIT:]
        selected: List[Tuple[int, GossipStatus, int]] = []
        for subject, entry in picked:
            selected.append((subject, entry[0], entry[1]))
            entry[2] -= 1
            if entry[2] <= 0:
                del queue[subject]
        return selected

    def _deliver(self, node: int,
                 updates: List[Tuple[int, GossipStatus, int]]) -> None:
        """Process a delivered message's piggyback at ``node``."""
        if node in self._crashed:
            return
        for subject, status, incarnation in updates:
            if subject == node:
                # Hearing a rumour about yourself: refute suspicion by
                # out-bidding its incarnation.  (A death rumour about a
                # live self cannot be refuted in SWIM; the supervisor's
                # restore path owns that.)
                if (status is GossipStatus.SUSPECT
                        and incarnation >= self._incarnation[node]):
                    self._incarnation[node] = incarnation + 1
                    self.refutations += 1
                    obs = self.sim.obs
                    if obs.enabled:
                        obs.metrics.counter(
                            "health.gossip.refutations").inc()
                    self._create_update(node, node, GossipStatus.ALIVE,
                                        incarnation + 1)
                continue
            self._apply_update(node, subject, status, incarnation)

    def _apply_update(self, node: int, subject: int, status: GossipStatus,
                      incarnation: int) -> None:
        """Merge one heard update into ``node``'s view; winners are
        queued for re-dissemination (the epidemic relay)."""
        view = self._views[node]
        if not _wins(status, incarnation, view.get(subject, _FRESH)):
            return
        view[subject] = (status, incarnation)
        self._queues[node][subject] = [
            status, incarnation, self.retransmit_budget]
        record = self._spread.get((subject, int(status), incarnation))
        if record is not None:
            created_at, appliers = record
            appliers.add(node)
            if len(appliers) >= self._spread_goal:
                self.dissemination_half_seconds.append(
                    self.sim.now - created_at)
                del self._spread[(subject, int(status), incarnation)]

    def _create_update(self, origin: int, subject: int,
                       status: GossipStatus, incarnation: int) -> None:
        """First-hand knowledge enters the gossip: ``origin`` asserts
        ``(subject, status, incarnation)``, seeds its own view and
        queue, and the omniscient aggregate judges whether the fleet's
        winning belief changed."""
        view = self._views[origin]
        if _wins(status, incarnation, view.get(subject, _FRESH)):
            view[subject] = (status, incarnation)
        self._queues[origin][subject] = [
            status, incarnation, self.retransmit_budget]
        key = (subject, int(status), incarnation)
        if key not in self._spread and self._spread_goal <= self.nodes:
            self._spread[key] = (self.sim.now, {origin})
        if _wins(status, incarnation, self._winning.get(subject, _FRESH)):
            self._winning[subject] = (status, incarnation)
            self._aggregate_transition(origin, subject, status)

    def _suspect(self, node: int, target: int) -> None:
        """A full probe round failed: ``node`` suspects ``target`` at
        its currently-known incarnation and starts the suspicion
        timer."""
        view = self._views[node]
        entry = view.get(target, _FRESH)
        if entry[0] is GossipStatus.DEAD:
            return
        incarnation = entry[1]
        self.suspicions += 1
        obs = self.sim.obs
        if obs.enabled:
            obs.instant("health.gossip.suspect", node=target,
                        by=node)
            obs.metrics.counter("health.gossip.suspicions").inc()
        self._create_update(node, target, GossipStatus.SUSPECT,
                            incarnation)
        self.sim.process(
            self._suspicion_timer_body(node, target, incarnation),
            name=f"gs.sus{node}")

    def _suspicion_timer_body(self, node: int, target: int,
                              incarnation: int
                              ) -> Generator[Event, Any, None]:
        """Process body: the suspicion clock.  Expires into a death
        assertion unless the suspicion was refuted (overridden in
        ``node``'s view) first."""
        try:
            yield self.sim.timeout(self.spec.effective_dead_after)
        except Interrupt:
            return
        if node in self._crashed:
            return
        entry = self._views[node].get(target)
        if entry is None or entry != (GossipStatus.SUSPECT, incarnation):
            return
        self._create_update(node, target, GossipStatus.DEAD, incarnation)

    def _aggregate_transition(self, origin: int, subject: int,
                              status: GossipStatus) -> None:
        """The fleet's winning belief about ``subject`` changed: drive
        the canonical membership machine (and death declarations) the
        way a perfect gossip observer would."""
        state = self.membership.state_of(subject)
        if status is GossipStatus.SUSPECT:
            if state in (NodeHealthState.HEALTHY,
                         NodeHealthState.DRAINING):
                self._transition(subject, NodeHealthState.SUSPECTED,
                                 f"gossip-suspect-by-{origin}")
                if subject not in self._crashed:
                    self.false_suspicions += 1
                    obs = self.sim.obs
                    if obs.enabled:
                        obs.metrics.counter(
                            "health.false_suspicions").inc()
        elif status is GossipStatus.ALIVE:
            if state is NodeHealthState.SUSPECTED:
                self._transition(subject, NodeHealthState.HEALTHY,
                                 "gossip-refuted")
        elif state is NodeHealthState.SUSPECTED:
            self._transition(subject, NodeHealthState.DEAD,
                             f"gossip-dead-by-{origin}")
            self._declare_death(subject, self.sim.now)


class _ProbeRound(Task):
    """One full SWIM probe round of ``node`` against ``target``: the
    direct ping, then k indirect relays, then the suspicion verdict at
    period end.  The direct ack gets a third of the period, the relays
    the rest.  Nothing waits on the round or its legs: a leg that gets
    through sets :attr:`acked`, and the round reads it at each
    deadline."""

    __slots__ = ("monitor", "node", "target", "acked")

    def __init__(self, monitor: GossipMonitor, node: int,
                 target: int) -> None:
        self.monitor = monitor
        self.node = node
        self.target = target
        self.acked = False
        super().__init__(monitor.sim, f"gs.probe{node}")

    def run(self) -> None:
        """Send the direct ping and start the direct deadline."""
        node = self.node
        _Leg(self, (node, self.target, node), f"gs.ping{node}")
        self.sim.timeout(self.monitor.spec.heartbeat_interval / 3.0
                         ).add_callback(self._direct_deadline)

    def _direct_deadline(self, _event: Event) -> None:
        self.enter()
        monitor = self.monitor
        node = self.node
        if self.acked or node in monitor._crashed:
            return
        for relay in monitor._pick_relays(node, self.target):
            monitor.indirect_probes += 1
            _Leg(self, (node, relay, self.target, relay, node),
                 f"gs.req{node}")
        interval = monitor.spec.heartbeat_interval
        self.sim.timeout(max(interval - interval / 3.0, 0.0)
                         ).add_callback(self._round_deadline)

    def _round_deadline(self, _event: Event) -> None:
        self.enter()
        monitor = self.monitor
        if self.acked or self.node in monitor._crashed:
            return
        monitor.probe_timeouts += 1
        monitor._suspect(self.node, self.target)


class _Leg(Task):
    """One leg of a probe round: protocol messages along ``path``, each
    carrying its sender's piggyback.  That is the ping and its ack
    ``node -> target -> node``, or the ping-req chain ``node -> relay ->
    target -> relay -> node`` that buys per-link routing diversity.

    Loss and unreachability are swallowed into the counters exactly
    like lost heartbeats (the protocol's whole job is surviving them),
    and a message to a crashed node ends the leg.  A completed leg is
    first-hand proof of life at the target's current incarnation
    (implicit in every real ack)."""

    __slots__ = ("probe", "path", "hop", "updates", "nbytes")

    def __init__(self, probe: _ProbeRound, path: Tuple[int, ...],
                 name: str) -> None:
        self.probe = probe
        self.path = path
        self.hop = 0
        super().__init__(probe.sim, name)

    def run(self) -> None:
        """Send the leg's first message."""
        self._transmit()

    def _transmit(self) -> None:
        monitor = self.probe.monitor
        src = self.path[self.hop]
        self.updates = monitor._select_updates(src)
        nbytes = HEARTBEAT_BYTES + len(self.updates) * BYTES_PER_UPDATE
        self.nbytes = nbytes
        monitor.heartbeats_sent += 1
        monitor.bytes_sent_by[src] += nbytes
        monitor.fabric.send(src, self.path[self.hop + 1], nbytes,
                            self._arrived, self.name)

    def _arrived(self, result: Any) -> None:
        monitor = self.probe.monitor
        if isinstance(result, Exception):
            monitor.heartbeats_lost += 1
            return
        monitor.heartbeats_delivered += 1
        self.hop += 1
        dst = self.path[self.hop]
        monitor.bytes_received_by[dst] += self.nbytes
        if dst in monitor._crashed:
            return
        monitor._deliver(dst, self.updates)
        if self.hop + 1 < len(self.path):
            self._transmit()
            return
        probe = self.probe
        monitor._apply_update(probe.node, probe.target, GossipStatus.ALIVE,
                              monitor._incarnation[probe.target])
        probe.acked = True


def build_monitor(sim: Simulator, fabric: Fabric, nodes: int,
                  spec: Optional[DetectionSpec] = None,
                  streams: Optional[RandomStreams] = None
                  ) -> Union[HeartbeatMonitor, GossipMonitor]:
    """Build the monitor ``spec.detector`` asks for.

    The one switch point every consumer (campaign supervisor, jobs
    service, CLI, benches) goes through: ``"fixed"``/``"phi"`` return a
    central :class:`HeartbeatMonitor`, ``"gossip"`` a
    :class:`GossipMonitor` seeded from ``streams`` (a fresh
    ``RandomStreams(0)`` when omitted — pass the campaign's streams so
    per-node probe randomness derives from the campaign seed).
    """
    if spec is None:
        spec = DetectionSpec()
    if spec.detector == "gossip":
        return GossipMonitor(sim, fabric, nodes, spec=spec,
                             streams=streams)
    return HeartbeatMonitor(sim, fabric, nodes, spec=spec)
