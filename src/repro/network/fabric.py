"""The simulated transport: moves bytes between hosts in virtual time.

A :class:`Fabric` binds a topology to an interconnect technology inside a
simulator.  :meth:`Fabric.transfer_ex` is its one transfer entry point: a
*process body* (generator) that returns a :class:`TransferOutcome`.  The
messaging layer, the failure detectors, the jobs service and the
parallel file system delegate to it with ``yield from``.

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
    Dict,
    FrozenSet,
    Generator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.network.technologies import InterconnectTechnology
from repro.network.topology import Edge, Node, Topology, canonical_link
from repro.sim.engine import Simulator
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


@dataclass(frozen=True)
class TransferOutcome:
    """Result of a fault-aware transfer that reached the destination."""

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

    # -- the transfer process ---------------------------------------------

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
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if not 0 <= src < self.topology.hosts:
            raise IndexError(f"src {src} out of range")
        if not 0 <= dst < self.topology.hosts:
            raise IndexError(f"dst {dst} out of range")
        sim = self.sim
        start = sim.now
        params = self.technology.loggp
        plan = self.fault_plan
        obs = sim.obs
        # One read of the flag per transfer: with observability off no
        # span is built, not even the null one, and _finish reuses it.
        traced = obs.enabled
        span = (obs.span("fabric.transfer", src=src, dst=dst, nbytes=nbytes)
                if traced else None)
        status = "error"
        try:
            if src == dst:
                # Intra-host handoff: CPU overhead plus a memcpy.
                yield sim.timeout(params.overhead
                                  + nbytes / _LOCAL_COPY_BANDWIDTH)
                self._finish(src, dst, nbytes, start, 0, traced)
                status = "ok"
                return TransferOutcome(end=sim.now, hops=0,
                                       corrupted=False, rerouted=False)

            if (self.technology.is_circuit_switched
                    and (src, dst) not in self._circuits):
                # First use of this pair: optics must set up the circuit.
                yield sim.timeout(self.technology.circuit_setup_seconds)
                self._circuits.add((src, dst))

            # Sender-side CPU overhead, then pick the route against the
            # fault state at injection time.
            yield sim.timeout(params.overhead)
            route = self.topology.route(src, dst)
            rerouted = False
            # Only link and node windows block routes or cut messages in
            # flight; a plan without them skips both queries.
            outages = plan is not None and plan.has_outages
            if outages:
                down_nodes = plan.down_nodes_at(sim.now)
                down_links = plan.down_links_at(sim.now)
                if down_nodes or down_links:
                    if self._blocked(route, down_nodes, down_links):
                        degraded = self.topology.route_avoiding(
                            src, dst, down_nodes, down_links)
                        if degraded is None:
                            plan.unreachable += 1
                            obs.instant("fabric.unreachable", src=src,
                                        dst=dst)
                            obs.metrics.counter("fabric.unreachable").inc()
                            raise NetworkUnreachable(
                                f"no route {src}->{dst} avoids "
                                f"{len(down_nodes)} down node(s) and "
                                f"{len(down_links)} down link(s)"
                            )
                        route = degraded
                        rerouted = True
                        plan.reroutes += 1
                        obs.instant("fabric.reroute", src=src, dst=dst)
                        obs.metrics.counter("fabric.reroutes").inc()

            hops = len(route)
            serialization = max(params.gap, nbytes * params.gap_per_byte)
            propagation = (params.latency
                           + max(0, hops - 1) * self.technology.hop_latency)

            depart = sim.now
            if self.contention:
                held = self._acquire_order(src, route)
                for resource in held:
                    yield resource.request()
                yield sim.timeout(serialization)
                for resource in held:
                    resource.release()
            else:
                yield sim.timeout(serialization)

            corrupted = False
            if plan is not None:
                if outages:
                    links = set()
                    nodes = set()
                    for a, b in route:
                        links.add(canonical_link(a, b))
                        nodes.add(a)
                        nodes.add(b)
                    if plan.route_hit_during(links, nodes, depart, sim.now):
                        plan.drops += 1
                        obs.instant("fabric.drop", src=src, dst=dst,
                                    cause="down_window")
                        obs.metrics.counter("fabric.drops").inc()
                        raise TransferDropped(
                            f"transfer {src}->{dst} lost: route element "
                            f"went down in flight at t<={sim.now:g}"
                        )
                if (plan.has_directed_faults
                        and plan.directed_hit_during(route, depart,
                                                     sim.now)):
                    # Grey failure: the oriented hop eats the message.
                    # Deliberately no reroute — nothing reported the
                    # loss, so the routing layer has nothing to avoid.
                    plan.drops += 1
                    plan.blackholes += 1
                    obs.instant("fabric.drop", src=src, dst=dst,
                                cause="blackhole")
                    obs.metrics.counter("fabric.drops").inc()
                    raise TransferDropped(
                        f"transfer {src}->{dst} lost: one-way blackhole "
                        f"on the route at t<={sim.now:g}"
                    )
                if plan.has_random_faults:
                    draw = plan.rng.random()
                    if draw < plan.drop_probability:
                        plan.drops += 1
                        obs.instant("fabric.drop", src=src, dst=dst,
                                    cause="random")
                        obs.metrics.counter("fabric.drops").inc()
                        raise TransferDropped(
                            f"transfer {src}->{dst} randomly dropped"
                        )
                    if draw < (plan.drop_probability
                               + plan.corrupt_probability):
                        plan.corruptions += 1
                        obs.instant("fabric.corrupt", src=src, dst=dst)
                        obs.metrics.counter("fabric.corruptions").inc()
                        corrupted = True

            # Pipeline latency plus receiver overhead.
            yield sim.timeout(propagation + params.overhead)
            self._finish(src, dst, nbytes, start, hops, traced)
            status = "ok"
            return TransferOutcome(end=sim.now, hops=hops,
                                   corrupted=corrupted, rerouted=rerouted)
        finally:
            if span is not None:
                span.close(status)

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
