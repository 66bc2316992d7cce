"""Network topologies on a plain undirected adjacency map.

Two families live here:

* :class:`SingleSwitchTopology` — one non-blocking crossbar (small systems);
* :class:`FatTreeTopology` — two-level leaf/spine with configurable
  oversubscription (the commodity scale-out answer, and how InfiniBand
  fabrics were actually deployed).

The three-level fat tree for tens of thousands of hosts is
:class:`~repro.network.fattree3.ThreeLevelFatTreeTopology`.

Hosts are graph nodes ``("h", i)``; switches are ``("s", j)``.  A *route*
is the ordered list of **directed** ``(from, to)`` node pairs between two
hosts; the fabric maps each direction of a physical link onto its own
contention resource (links are full duplex, as real switched fabrics
are).  Routing is deterministic — same (src, dst) always takes the same
path — so simulated runs are reproducible.

Routes are computed on every call and never memoised: the fat tree's is
two or four ``(from, to)`` tuples built inline in closed form, so a
fabric that asks once per transfer holds no state that grows with the
number of (src, dst) pairs it has carried.
"""

from __future__ import annotations

from typing import Dict, Iterator, KeysView, List, Optional, Set, Tuple

__all__ = [
    "Topology",
    "SingleSwitchTopology",
    "FatTreeTopology",
    "canonical_link",
]

Node = Tuple[str, int]
Edge = Tuple[Node, Node]


def canonical_link(a: Node, b: Node) -> Edge:
    """Undirected identity of a physical link: endpoints in sorted order.

    Fault plans name links canonically so a down window takes out both
    full-duplex directions at once.
    """
    return (a, b) if a <= b else (b, a)


class _Graph:
    """Undirected simple graph as an insertion-ordered adjacency map.

    Only what the topologies and their callers use.  Adding a link that
    already exists is a no-op.
    """

    def __init__(self) -> None:
        self._adj: Dict[Node, Dict[Node, None]] = {}

    def add_node(self, node: Node) -> None:
        """Add ``node`` with no links (no-op when present)."""
        self._adj.setdefault(node, {})

    def add_edge(self, a: Node, b: Node) -> None:
        """Link ``a`` and ``b``, adding either node if new."""
        self._adj.setdefault(a, {})[b] = None
        self._adj.setdefault(b, {})[a] = None

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Nodes linked to ``node``, in the order the links were added."""
        return iter(self._adj[node])

    def has_edge(self, a: Node, b: Node) -> bool:
        """Whether ``a`` and ``b`` are linked (False for unknown nodes)."""
        return b in self._adj.get(a, ())

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    @property
    def nodes(self) -> KeysView[Node]:
        """Every node, in insertion order."""
        return self._adj.keys()

    @property
    def edges(self) -> List[Edge]:
        """Every link once, as ``(node, neighbour)`` in insertion order."""
        seen: Set[Node] = set()
        edges: List[Edge] = []
        for node, neighbours in self._adj.items():
            for neighbour in neighbours:
                if neighbour not in seen:
                    edges.append((node, neighbour))
            seen.add(node)
        return edges

    def number_of_edges(self) -> int:
        """Distinct links in the graph."""
        return len(self.edges)


class Topology:
    """Base: a graph, a host count, and a routing function."""

    def __init__(self, hosts: int) -> None:
        if hosts < 1:
            raise ValueError(f"need at least one host, got {hosts}")
        self.hosts = hosts
        self.graph = _Graph()

    def host_node(self, rank: int) -> Node:
        """Graph node for a host rank (IndexError when out of range)."""
        if not 0 <= rank < self.hosts:
            raise IndexError(f"host {rank} out of range [0, {self.hosts})")
        return ("h", rank)

    def route(self, src: int, dst: int) -> List[Edge]:
        """Ordered directed ``(from, to)`` steps from host ``src`` to ``dst``.

        The trivial route from a host to itself is the empty list.
        """
        raise NotImplementedError

    def hop_count(self, src: int, dst: int) -> int:
        """Number of links on the route (0 for self)."""
        return len(self.route(src, dst))

    def route_avoiding(
        self, src: int, dst: int,
        down_nodes: "frozenset" = frozenset(),
        down_links: "frozenset" = frozenset(),
    ) -> "Optional[List[Edge]]":
        """Deterministic shortest route avoiding failed elements.

        ``down_nodes`` holds graph nodes (switches, hosts) that are out of
        service; ``down_links`` holds :func:`canonical_link` keys.  Returns
        ``None`` when no path survives.  The base implementation is a BFS
        with sorted neighbour expansion, so the degraded route is a pure
        function of (src, dst, down sets) — reproducible across runs.
        Subclasses with structured routing override this with a cheaper
        scheme (e.g. the fat tree retries alternate spines).
        """
        if src == dst:
            return []
        a, b = self.host_node(src), self.host_node(dst)
        if a in down_nodes or b in down_nodes:
            return None
        parents: Dict[Node, Optional[Node]] = {a: None}
        frontier: List[Node] = [a]
        while frontier:
            next_frontier: List[Node] = []
            for node in frontier:
                for neighbour in sorted(self.graph.neighbors(node)):
                    if neighbour in parents or neighbour in down_nodes:
                        continue
                    if canonical_link(node, neighbour) in down_links:
                        continue
                    parents[neighbour] = node
                    if neighbour == b:
                        path = [neighbour]
                        while parents[path[-1]] is not None:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return list(zip(path, path[1:]))
                    next_frontier.append(neighbour)
            frontier = next_frontier
        return None

    @property
    def num_links(self) -> int:
        """Edges in the fabric graph."""
        return self.graph.number_of_edges()

    @property
    def num_switches(self) -> int:
        """Switch nodes in the fabric graph."""
        return sum(1 for node in self.graph.nodes if node[0] == "s")

    def diameter_hops(self) -> int:
        """Maximum route length over all host pairs (computed exactly for
        small systems, by formula in subclasses that know better)."""
        return max(
            self.hop_count(0, d) for d in range(self.hosts)
        ) if self.hosts > 1 else 0

    def bisection_links(self) -> int:
        """Links crossing the worst-case even bipartition (by formula)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} hosts={self.hosts} "
                f"switches={self.num_switches} links={self.num_links}>")


class SingleSwitchTopology(Topology):
    """Every host one hop from a single non-blocking crossbar."""

    def __init__(self, hosts: int) -> None:
        super().__init__(hosts)
        switch = ("s", 0)
        self.graph.add_node(switch)
        for rank in range(hosts):
            self.graph.add_edge(self.host_node(rank), switch)

    def route(self, src: int, dst: int) -> List[Edge]:
        """Two directed hops through the crossbar (empty for self)."""
        a, b = self.host_node(src), self.host_node(dst)
        if src == dst:
            return []
        switch = ("s", 0)
        return [(a, switch), (switch, b)]

    def diameter_hops(self) -> int:
        """Every pair is exactly two hops apart."""
        return 2 if self.hosts > 1 else 0

    def bisection_links(self) -> int:
        """Non-blocking crossbar: the cut goes through host links."""
        return self.hosts // 2


class FatTreeTopology(Topology):
    """Two-level leaf/spine Clos.

    Parameters
    ----------
    hosts:
        Endpoint count; leaves are filled in rank order.
    hosts_per_leaf:
        Downlinks per leaf switch.
    spines:
        Uplink count per leaf == number of spine switches.  ``spines ==
        hosts_per_leaf`` gives full bisection; fewer gives an
        oversubscribed (cheaper) fabric.
    """

    def __init__(self, hosts: int, hosts_per_leaf: int = 16,
                 spines: Optional[int] = None) -> None:
        super().__init__(hosts)
        if hosts_per_leaf < 1:
            raise ValueError("hosts_per_leaf must be >= 1")
        self.hosts_per_leaf = hosts_per_leaf
        self.num_leaves = -(-hosts // hosts_per_leaf)  # ceil division
        self.num_spines = hosts_per_leaf if spines is None else spines
        if self.num_spines < 1:
            raise ValueError("need at least one spine")
        for leaf in range(self.num_leaves):
            leaf_node = ("s", leaf)
            for spine in range(self.num_spines):
                self.graph.add_edge(leaf_node,
                                    ("s", self.num_leaves + spine))
        for rank in range(hosts):
            self.graph.add_edge(self.host_node(rank),
                                ("s", rank // hosts_per_leaf))

    @property
    def oversubscription(self) -> float:
        """Downlinks per uplink (1.0 == full bisection)."""
        return self.hosts_per_leaf / self.num_spines

    def _leaf_of(self, rank: int) -> Node:
        return ("s", rank // self.hosts_per_leaf)

    def _spine_for(self, src: int, dst: int) -> Node:
        # Deterministic spreading: same pair always picks the same spine.
        index = (src * 1_000_003 + dst) % self.num_spines
        return ("s", self.num_leaves + index)

    def route(self, src: int, dst: int) -> List[Edge]:
        """2 hops intra-leaf, 4 hops through a (deterministic) spine."""
        if src == dst:
            return []
        a, b = self.host_node(src), self.host_node(dst)
        leaf_a, leaf_b = self._leaf_of(src), self._leaf_of(dst)
        if leaf_a == leaf_b:
            return [(a, leaf_a), (leaf_a, b)]
        spine = self._spine_for(src, dst)
        return [(a, leaf_a), (leaf_a, spine), (spine, leaf_b), (leaf_b, b)]

    def route_avoiding(
        self, src: int, dst: int,
        down_nodes: "frozenset" = frozenset(),
        down_links: "frozenset" = frozenset(),
    ) -> Optional[List[Edge]]:
        """Degraded fat-tree routing: try alternate spines cyclically.

        Starting from the deterministically-hashed preferred spine, scan
        spines in cyclic order and take the first whose switch and both
        leaf uplinks are alive.  Host links and leaf switches have no
        redundancy in a two-level Clos, so their failure partitions the
        affected hosts (returns ``None``).
        """
        if src == dst:
            return []
        a, b = self.host_node(src), self.host_node(dst)
        if a in down_nodes or b in down_nodes:
            return None
        leaf_a, leaf_b = self._leaf_of(src), self._leaf_of(dst)
        if leaf_a in down_nodes or leaf_b in down_nodes:
            return None
        if (canonical_link(a, leaf_a) in down_links
                or canonical_link(leaf_b, b) in down_links):
            return None
        if leaf_a == leaf_b:
            return [(a, leaf_a), (leaf_a, b)]
        preferred = (src * 1_000_003 + dst) % self.num_spines
        for offset in range(self.num_spines):
            index = (preferred + offset) % self.num_spines
            spine = ("s", self.num_leaves + index)
            if spine in down_nodes:
                continue
            if (canonical_link(leaf_a, spine) in down_links
                    or canonical_link(spine, leaf_b) in down_links):
                continue
            return [(a, leaf_a), (leaf_a, spine), (spine, leaf_b),
                    (leaf_b, b)]
        return None

    def diameter_hops(self) -> int:
        """4 hops once more than one leaf exists (2 within one leaf)."""
        if self.hosts <= 1:
            return 0
        return 2 if self.num_leaves == 1 else 4

    def bisection_links(self) -> int:
        """Half the leaves' uplinks (host links if only one leaf)."""
        # The cut separates half the leaves from the other half; each leaf
        # contributes its uplinks.  With one leaf the cut is through hosts.
        if self.num_leaves == 1:
            return self.hosts // 2
        return (self.num_leaves // 2) * self.num_spines
