"""The simulated transport: moves bytes between hosts in virtual time.

A :class:`Fabric` binds a topology to an interconnect technology inside a
simulator.  One transfer object runs the cost model below step by step,
and two drivers share it, making the same requests in the same order at
the same instants: :meth:`Fabric.transfer_ex`, a *process body* that the
messaging layer and the parallel file system ``yield from``, and
:meth:`Fabric.send`, which runs it from event callbacks for the
fire-and-forget messages of the failure detectors and the jobs service.

Cost model for one ``n``-byte transfer along a ``h``-hop route::

    [circuit setup, first use of (src,dst) if circuit-switched]
    o_send                                  (sender CPU)
    serialization: max(g, n * G)            (holding the route's links)
    L + (h - 1) * hop_latency               (wire + switch traversal)
    o_recv                                  (receiver CPU)

Contention: while serializing, the transfer holds a capacity-1
:class:`~repro.sim.resources.Resource` per link on its route plus the
sender's NIC injection port.  Resources are acquired in canonical global
order, which makes concurrent transfers deadlock-free at the price of a
slightly pessimistic (circuit-like) contention estimate — an explicit,
ablatable modelling choice (bench E13 runs it both ways via
``contention=False``).

State: each transfer asks the topology for its route (and, when a fault
plan has it blocked, for a degraded one); no route is memoised.  Link and
NIC resources are built on first use, at most one per directed link and
host.  So apart from a circuit-switched technology's set-up circuits and
the opt-in transfer records, a fabric's memory is bounded by its
topology, not by the traffic it has carried.

Cost per transfer: a transfer reads ``obs.enabled`` once and builds its
``fabric.transfer`` span only when observability is on.  It queries the
plan's down sets, and collects its route's links and nodes for the
in-flight check, only when the plan schedules a link or node window
(:attr:`FabricFaultPlan.has_outages`); a plan of one-way windows and
random loss skips both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Generator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.network.technologies import InterconnectTechnology
from repro.network.topology import Edge, Node, Topology, canonical_link
from repro.obs import DEFAULT_TRACK
from repro.sim.engine import Simulator
from repro.sim.event import Event
from repro.sim.resources import Resource

__all__ = [
    "Fabric",
    "TransferRecord",
    "TransferOutcome",
    "FabricFaultPlan",
    "DownWindow",
    "NetworkUnreachable",
    "TransferDropped",
]

#: Local (intra-node) copy bandwidth used for rank-to-self transfers.
_LOCAL_COPY_BANDWIDTH = 10e9


class NetworkUnreachable(RuntimeError):
    """No route between two hosts survives the currently-down elements."""


class TransferDropped(RuntimeError):
    """A transfer was lost in flight (down window hit it, or random drop)."""


@dataclass(frozen=True)
class TransferRecord:
    """One completed transfer, for traffic analysis in tests/benchmarks."""

    src: int
    dst: int
    nbytes: int
    start: float
    end: float
    hops: int

    @property
    def duration(self) -> float:
        """Transfer length in virtual seconds."""
        return self.end - self.start


class TransferOutcome(NamedTuple):
    """Result of a fault-aware transfer that reached the destination.

    An immutable record, as a named tuple: every transfer builds one,
    and a named tuple costs about half what a frozen dataclass does to
    build."""

    end: float
    hops: int
    corrupted: bool
    rerouted: bool


@dataclass(frozen=True)
class DownWindow:
    """Half-open outage interval ``[start, end)`` in virtual seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start or self.start < 0:
            raise ValueError(
                f"down window must satisfy 0 <= start < end, got "
                f"[{self.start}, {self.end})"
            )

    def active_at(self, t: float) -> bool:
        """True while the element is out of service at instant ``t``."""
        return self.start <= t < self.end

    def overlaps(self, t0: float, t1: float) -> bool:
        """True if the outage intersects the half-open span ``[t0, t1)``."""
        return self.start < t1 and t0 < self.end


class FabricFaultPlan:
    """Declarative schedule of fabric faults, injected into a Fabric.

    Four fault classes, all reproducible:

    * **link down windows** — both directions of a physical link are out
      of service for an interval;
    * **one-way link windows** — a single *direction* of a link silently
      blackholes traffic (asymmetric / grey failure: the healthy reverse
      direction keeps flowing, routing never notices, messages just
      vanish — the classic bad-transceiver failure that makes A suspect
      B while B still hears A);
    * **switch/node down windows** — a graph node (usually a switch) is
      out, taking all its links with it;
    * **random loss** — each delivered transfer is independently dropped
      with ``drop_probability`` or bit-corrupted with
      ``corrupt_probability``, using draws from ``rng`` (pass a generator
      from a named :class:`~repro.sim.rng.RandomStreams` stream so
      campaigns stay bit-reproducible).

    Counters (``drops``, ``corruptions``, ``reroutes``, ``unreachable``)
    accumulate across the plan's lifetime for campaign reports.
    """

    def __init__(self, *, drop_probability: float = 0.0,
                 corrupt_probability: float = 0.0,
                 rng: Optional[Any] = None) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(f"drop_probability {drop_probability} not in "
                             "[0, 1]")
        if not 0.0 <= corrupt_probability <= 1.0:
            raise ValueError(f"corrupt_probability {corrupt_probability} "
                             "not in [0, 1]")
        if drop_probability + corrupt_probability > 1.0:
            raise ValueError("drop + corrupt probabilities exceed 1")
        if (drop_probability > 0 or corrupt_probability > 0) and rng is None:
            raise ValueError(
                "random drop/corrupt faults need an rng (use a named "
                "RandomStreams stream for reproducibility)"
            )
        self.drop_probability = drop_probability
        self.corrupt_probability = corrupt_probability
        self.rng = rng
        self._link_windows: List[Tuple[Edge, DownWindow]] = []
        self._node_windows: List[Tuple[Node, DownWindow]] = []
        self._directed_windows: List[Tuple[Edge, DownWindow]] = []
        self.drops = 0
        self.corruptions = 0
        self.reroutes = 0
        self.unreachable = 0
        self.blackholes = 0

    # -- schedule construction -------------------------------------------

    def link_down(self, a: Node, b: Node, start: float,
                  end: float) -> "FabricFaultPlan":
        """Schedule the link between graph nodes ``a`` and ``b`` down for
        ``[start, end)``; returns self for chaining."""
        self._link_windows.append(
            (canonical_link(a, b), DownWindow(start, end)))
        return self

    def link_down_oneway(self, src: Node, dst: Node, start: float,
                         end: float) -> "FabricFaultPlan":
        """Schedule the ``src -> dst`` *direction* of a link to silently
        blackhole traffic for ``[start, end)``; the reverse direction
        keeps working.  The edge is oriented — no canonicalization —
        and routing never re-routes around it (grey failure: nothing
        reports the loss, transfers crossing it are simply dropped).
        Returns self for chaining."""
        self._directed_windows.append(
            ((src, dst), DownWindow(start, end)))
        return self

    def node_down(self, node: Node, start: float,
                  end: float) -> "FabricFaultPlan":
        """Schedule a switch (or host NIC) node down for ``[start, end)``."""
        self._node_windows.append((node, DownWindow(start, end)))
        return self

    @property
    def has_random_faults(self) -> bool:
        """True when drop or corruption probabilities are active."""
        return self.drop_probability > 0 or self.corrupt_probability > 0

    @property
    def has_directed_faults(self) -> bool:
        """True when any one-way blackhole window is scheduled."""
        return bool(self._directed_windows)

    @property
    def has_outages(self) -> bool:
        """True when any link or node down window is scheduled."""
        return bool(self._link_windows or self._node_windows)

    @property
    def link_outages(self) -> int:
        """Scheduled link down windows (for campaign accounting)."""
        return len(self._link_windows)

    # -- queries -----------------------------------------------------------

    def down_links_at(self, t: float) -> FrozenSet[Edge]:
        """Canonical links out of service at instant ``t``."""
        return frozenset(link for link, w in self._link_windows
                         if w.active_at(t))

    def down_nodes_at(self, t: float) -> FrozenSet[Node]:
        """Graph nodes out of service at instant ``t``."""
        return frozenset(node for node, w in self._node_windows
                         if w.active_at(t))

    def route_hit_during(self, links: Set[Edge], nodes: Set[Node],
                         t0: float, t1: float) -> bool:
        """Did any of the given elements go down within ``[t0, t1)``?

        Used for mid-flight loss: a message serializing onto a link when
        the link dies is gone.
        """
        for link, window in self._link_windows:
            if link in links and window.overlaps(t0, t1):
                return True
        for node, window in self._node_windows:
            if node in nodes and window.overlaps(t0, t1):
                return True
        return False

    def directed_hit_during(self, hops: List[Edge], t0: float,
                            t1: float) -> bool:
        """Did a one-way blackhole cover any oriented route hop while
        the message crossed it (``[t0, t1)``)?

        ``hops`` are the route's directed ``(from, to)`` steps as
        routed — orientation matters, that is the whole point.
        """
        for edge, window in self._directed_windows:
            if window.overlaps(t0, t1) and edge in hops:
                return True
        return False


class Fabric:
    """Contention-aware byte transport over a topology + technology."""

    def __init__(self, sim: Simulator, topology: Topology,
                 technology: InterconnectTechnology, *,
                 contention: bool = True,
                 record_transfers: bool = False,
                 fault_plan: Optional[FabricFaultPlan] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.technology = technology
        self.contention = contention
        self.record_transfers = record_transfers
        self.fault_plan = fault_plan
        self.records: List[TransferRecord] = []
        self._links: Dict[Edge, Resource] = {}
        self._nics: Dict[int, Resource] = {}
        self._circuits: Set[Tuple[int, int]] = set()
        self.bytes_moved = 0.0
        self.transfer_count = 0

    # -- resource lookup (lazy so huge topologies stay cheap) -------------

    def _link(self, edge: Edge) -> Resource:
        resource = self._links.get(edge)
        if resource is None:
            resource = Resource(self.sim, capacity=1, name=f"link{edge}")
            self._links[edge] = resource
        return resource

    def _nic(self, host: int) -> Resource:
        resource = self._nics.get(host)
        if resource is None:
            resource = Resource(self.sim, capacity=1, name=f"nic{host}")
            self._nics[host] = resource
        return resource

    # -- the two transfer drivers -----------------------------------------

    def transfer_ex(self, src: int, dst: int,
                    nbytes: int) -> Generator[Any, Any, "TransferOutcome"]:
        """Fault-aware transfer process body.

        Use as ``yield from fabric.transfer_ex(...)`` inside a process,
        or wrap with ``sim.process`` for a standalone transfer; the
        outcome's ``end`` is the time the last byte reached ``dst``.
        Runs the cost model in the module docstring and, with a fault
        plan, consults it: re-routes around down elements (paying the
        degraded route's hop cost), raises :class:`NetworkUnreachable`
        when no path survives, raises :class:`TransferDropped` when the
        message is lost (an element on the route went down
        mid-serialization, or the random drop draw fired), and flags
        corruption in the returned :class:`TransferOutcome` — the
        end-to-end check is the caller's job, as on a real wire.
        """
        transfer = _Transfer(self, src, dst, nbytes)
        try:
            event = transfer.step(transfer)
            while event is not None:
                yield event
                event = transfer.step(transfer)
        finally:
            # Only an exception thrown in at a yield (an interrupt, or
            # close()) gets here with the span still open.
            transfer.close_span("error")
        return transfer.outcome

    def send(self, src: int, dst: int, nbytes: int,
             done: Callable[[Any], None], name: str) -> None:
        """Callback form of :meth:`transfer_ex`: start the transfer now,
        with no process.

        Where the generator would return or raise, ``done`` is called
        instead, at that instant, with the :class:`TransferOutcome` or
        the :class:`TransferDropped` or :class:`NetworkUnreachable`.
        ``name`` (the sending :class:`~repro.sim.engine.Task`'s) is what
        DetSan calls the transfer's events.  An invalid host or size
        raises here.
        """
        transfer = _Transfer(self, src, dst, nbytes, name)
        transfer.done = done
        transfer._resume(None)

    @staticmethod
    def _blocked(route: List[Edge], down_nodes: FrozenSet[Node],
                 down_links: FrozenSet[Edge]) -> bool:
        for a, b in route:
            if a in down_nodes or b in down_nodes:
                return True
            if canonical_link(a, b) in down_links:
                return True
        return False

    def _acquire_order(self, src: int, route: List[Edge]) -> List[Resource]:
        """NIC + link resources in a globally consistent order.

        The sender's NIC comes first, then the route's links sorted by
        directed edge.  Every transfer acquires in this order, so no
        cycle of waits can form (classic total-order deadlock avoidance).
        Links are looked up inline; :meth:`_link` builds a missing one.
        """
        links = self._links
        held = [self._nic(src)]
        for edge in sorted(route):
            resource = links.get(edge)
            held.append(resource if resource is not None
                        else self._link(edge))
        return held

    def _finish(self, src: int, dst: int, nbytes: int, start: float,
                hops: int, traced: bool) -> None:
        self.bytes_moved += nbytes
        self.transfer_count += 1
        if traced:
            obs = self.sim.obs
            obs.metrics.counter("fabric.transfers").inc()
            obs.metrics.counter("fabric.bytes_moved").inc(float(nbytes))
            obs.metrics.histogram("fabric.transfer_seconds").observe(
                self.sim.now - start)
        if self.record_transfers:
            self.records.append(TransferRecord(
                src=src, dst=dst, nbytes=nbytes,
                start=start, end=self.sim.now, hops=hops,
            ))

    # -- analytic helpers (no simulation needed) ---------------------------

    def uncontended_time(self, src: int, dst: int, nbytes: int) -> float:
        """Closed-form transfer time on an idle fabric (no circuit setup)."""
        params = self.technology.loggp
        if src == dst:
            return params.overhead + nbytes / _LOCAL_COPY_BANDWIDTH
        hops = len(self.topology.route(src, dst))
        return (2 * params.overhead
                + max(params.gap, nbytes * params.gap_per_byte)
                + params.latency
                + max(0, hops - 1) * self.technology.hop_latency)


class _Transfer:
    """One transfer's request sequence, run one step at a time.

    ``step`` holds the next step, and a driver runs it as
    ``transfer.step(transfer)``: the first at once, each later one when
    the event the one before returned has fired.  A step returns the
    next event to wait on, or ``None`` once the last byte is in and
    :attr:`outcome` is set; a lost transfer raises from the step that
    loses it.  The steps every transfer takes read the clock as
    ``sim._now``, as the engine does, rather than through a property.
    """

    __slots__ = ("fabric", "src", "dst", "nbytes", "name", "done", "start",
                 "traced", "span", "track", "route", "rerouted", "depart",
                 "held", "pending", "corrupted", "outcome", "step")

    done: Callable[[Any], None]
    step: Callable[[_Transfer], Optional[Event]]

    def __init__(self, fabric: Fabric, src: int, dst: int, nbytes: int,
                 name: str = "") -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        hosts = fabric.topology.hosts
        if not 0 <= src < hosts:
            raise IndexError(f"src {src} out of range")
        if not 0 <= dst < hosts:
            raise IndexError(f"dst {dst} out of range")
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.name = name
        self.traced = False
        self.track = DEFAULT_TRACK
        self.span: Any = None
        self.route: List[Edge] = []
        self.rerouted = False
        self.corrupted = False
        self.outcome: Optional[TransferOutcome] = None
        self.step = _Transfer._begin

    def _begin(self) -> Event:
        """First step: open the span, then wait out the sender overhead
        (or the intra-host copy, or a first-use circuit set-up)."""
        fabric = self.fabric
        sim = fabric.sim
        self.start = sim._now
        obs = sim.obs
        # One read of the flag per transfer: with observability off no
        # span is built, not even the null one, and _finish reuses it.
        self.traced = obs.enabled
        if self.traced:
            self.span = obs.span("fabric.transfer", src=self.src,
                                 dst=self.dst, nbytes=self.nbytes)
            self.track = obs.current_track
        params = fabric.technology.loggp
        if self.src == self.dst:
            # Intra-host handoff: CPU overhead plus a memcpy.
            self.step = _Transfer._arrived
            return sim.timeout(params.overhead
                               + self.nbytes / _LOCAL_COPY_BANDWIDTH)
        if (fabric.technology.is_circuit_switched
                and (self.src, self.dst) not in fabric._circuits):
            # First use of this pair: optics must set up the circuit.
            self.step = _Transfer._circuit_up
            return sim.timeout(fabric.technology.circuit_setup_seconds)
        self.step = _Transfer._routed
        return sim.timeout(params.overhead)

    def _circuit_up(self) -> Event:
        fabric = self.fabric
        fabric._circuits.add((self.src, self.dst))
        self.step = _Transfer._routed
        return fabric.sim.timeout(fabric.technology.loggp.overhead)

    def _routed(self) -> Event:
        """Sender overhead done: pick the route against the fault state
        at injection time, then request the first resource."""
        fabric = self.fabric
        sim = fabric.sim
        src, dst = self.src, self.dst
        route = fabric.topology.route(src, dst)
        plan = fabric.fault_plan
        # Only link and node windows block routes or cut messages in
        # flight; a plan without them skips both queries.
        if plan is not None and plan.has_outages:
            down_nodes = plan.down_nodes_at(sim.now)
            down_links = plan.down_links_at(sim.now)
            if down_nodes or down_links:
                if fabric._blocked(route, down_nodes, down_links):
                    degraded = fabric.topology.route_avoiding(
                        src, dst, down_nodes, down_links)
                    obs = sim.obs
                    if degraded is None:
                        plan.unreachable += 1
                        obs.instant("fabric.unreachable", src=src, dst=dst)
                        obs.metrics.counter("fabric.unreachable").inc()
                        self.close_span("error")
                        raise NetworkUnreachable(
                            f"no route {src}->{dst} avoids "
                            f"{len(down_nodes)} down node(s) and "
                            f"{len(down_links)} down link(s)"
                        )
                    route = degraded
                    self.rerouted = True
                    plan.reroutes += 1
                    obs.instant("fabric.reroute", src=src, dst=dst)
                    obs.metrics.counter("fabric.reroutes").inc()
        self.route = route
        self.depart = sim._now
        if fabric.contention:
            self.held = fabric._acquire_order(src, route)
            self.pending = iter(self.held)
            self.step = _Transfer._granted
            return next(self.pending).request()
        self.held = []
        self.step = _Transfer._serialized
        return sim.timeout(self._serialization())

    def _granted(self) -> Event:
        """One grant in: request the next resource, or serialize once
        the NIC and every link are held."""
        resource = next(self.pending, None)
        if resource is not None:
            return resource.request()
        self.step = _Transfer._serialized
        return self.fabric.sim.timeout(self._serialization())

    def _serialization(self) -> float:
        params = self.fabric.technology.loggp
        return max(params.gap, self.nbytes * params.gap_per_byte)

    def _serialized(self) -> Event:
        """Last byte on the wire: release the route, then check whether
        the message survived the crossing."""
        fabric = self.fabric
        sim = fabric.sim
        for resource in self.held:
            resource.release()
        plan = fabric.fault_plan
        if plan is not None:
            route = self.route
            if plan.has_outages:
                links = set()
                nodes = set()
                for a, b in route:
                    links.add(canonical_link(a, b))
                    nodes.add(a)
                    nodes.add(b)
                if plan.route_hit_during(links, nodes, self.depart,
                                         sim.now):
                    raise self._dropped(
                        plan, "down_window",
                        f"lost: route element went down in flight at "
                        f"t<={sim.now:g}")
            if (plan.has_directed_faults
                    and plan.directed_hit_during(route, self.depart,
                                                 sim.now)):
                # Grey failure: the oriented hop eats the message.
                # Deliberately no reroute — nothing reported the loss,
                # so the routing layer has nothing to avoid.
                plan.blackholes += 1
                raise self._dropped(
                    plan, "blackhole",
                    f"lost: one-way blackhole on the route at "
                    f"t<={sim.now:g}")
            if plan.has_random_faults:
                draw = plan.rng.random()
                if draw < plan.drop_probability:
                    raise self._dropped(plan, "random", "randomly dropped")
                if draw < (plan.drop_probability
                           + plan.corrupt_probability):
                    plan.corruptions += 1
                    sim.obs.instant("fabric.corrupt", src=self.src,
                                    dst=self.dst)
                    sim.obs.metrics.counter("fabric.corruptions").inc()
                    self.corrupted = True
        # Pipeline latency plus receiver overhead.
        params = fabric.technology.loggp
        propagation = (params.latency + max(0, len(self.route) - 1)
                       * fabric.technology.hop_latency)
        self.step = _Transfer._arrived
        return sim.timeout(propagation + params.overhead)

    def _dropped(self, plan: FabricFaultPlan, cause: str,
                 how: str) -> TransferDropped:
        plan.drops += 1
        obs = self.fabric.sim.obs
        obs.instant("fabric.drop", src=self.src, dst=self.dst, cause=cause)
        obs.metrics.counter("fabric.drops").inc()
        self.close_span("error")
        return TransferDropped(f"transfer {self.src}->{self.dst} {how}")

    def _arrived(self) -> None:
        """Receiver overhead done: account the transfer; no next event."""
        fabric = self.fabric
        hops = len(self.route)
        fabric._finish(self.src, self.dst, self.nbytes, self.start, hops,
                       self.traced)
        self.outcome = TransferOutcome(end=fabric.sim._now, hops=hops,
                                       corrupted=self.corrupted,
                                       rerouted=self.rerouted)
        self.close_span("ok")
        return None

    def close_span(self, status: str) -> None:
        """Close the ``fabric.transfer`` span, if it is still open."""
        span = self.span
        if span is not None:
            self.span = None
            span.close(status)

    def _resume(self, _event: Optional[Event]) -> None:
        """The callback driver (:meth:`Fabric.send`): run the next step,
        then wait on its event or hand the end to ``done``."""
        if self.traced:
            self.fabric.sim.obs.set_track(self.track)
        try:
            event = self.step(self)
        except (TransferDropped, NetworkUnreachable) as lost:
            self.done(lost)
            return
        if event is None:
            self.done(self.outcome)
        elif event._callbacks is None:
            event._callbacks = [self._resume]
        else:
            event.add_callback(self._resume)
