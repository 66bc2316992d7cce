"""Three-level k-ary fat tree — the petaflops-scale fabric.

The two-level leaf/spine fabric tops out at ``hosts_per_leaf × spines``
endpoints; machines in the tens of thousands of nodes need the classic
three-tier Clos built from uniform radix-``k`` switches:

* ``k`` pods, each with ``k/2`` edge and ``k/2`` aggregation switches;
* ``(k/2)²`` core switches;
* ``k³/4`` hosts (``k/2`` per edge switch).

Full bisection by construction.  Routing is the standard deterministic
two-step hash: the (src, dst) pair picks an aggregation switch within
the pod and a core switch above it, spreading flows while keeping every
simulated run reproducible.
"""

from __future__ import annotations

from typing import List

from repro.network.topology import Edge, Node, Topology

__all__ = ["ThreeLevelFatTreeTopology"]


class ThreeLevelFatTreeTopology(Topology):
    """k-ary three-tier fat tree (k even, >= 2); hosts = k^3 / 4."""

    def __init__(self, radix: int) -> None:
        if radix < 2 or radix % 2 != 0:
            raise ValueError(f"radix must be even and >= 2, got {radix}")
        self.radix = radix
        half = radix // 2
        hosts = radix ** 3 // 4
        super().__init__(hosts)
        self._half = half
        self._hosts_per_pod = half * half
        # Switch id layout: edges, then aggregations, then cores.
        self._edge_base = 0
        self._agg_base = radix * half          # k pods x k/2 edges
        self._core_base = self._agg_base + radix * half

        # Host <-> edge links.
        for host in range(hosts):
            self.graph.add_edge(self.host_node(host),
                                ("s", self._edge_of(host)))
        # Edge <-> aggregation links (within each pod, full mesh).
        for pod in range(radix):
            for edge_index in range(half):
                edge_switch = ("s", self._edge_base + pod * half + edge_index)
                for agg_index in range(half):
                    agg_switch = ("s", self._agg_base + pod * half + agg_index)
                    self.graph.add_edge(edge_switch, agg_switch)
        # Aggregation <-> core links: agg a of every pod connects to core
        # group a (cores a*half .. a*half + half - 1).
        for pod in range(radix):
            for agg_index in range(half):
                agg_switch = ("s", self._agg_base + pod * half + agg_index)
                for core_index in range(half):
                    core_switch = ("s", self._core_base
                                   + agg_index * half + core_index)
                    self.graph.add_edge(agg_switch, core_switch)

    # -- address arithmetic -------------------------------------------------

    def pod_of(self, host: int) -> int:
        """Index of the pod a host lives in."""
        return host // self._hosts_per_pod

    def _edge_of(self, host: int) -> int:
        pod = self.pod_of(host)
        within = (host % self._hosts_per_pod) // self._half
        return self._edge_base + pod * self._half + within

    def _agg_for(self, src: int, dst: int, pod: int) -> int:
        index = (src * 31 + dst * 7) % self._half
        return self._agg_base + pod * self._half + index

    def _core_for(self, src: int, dst: int, agg_index: int) -> int:
        index = (src * 13 + dst * 3) % self._half
        return self._core_base + agg_index * self._half + index

    # -- routing --------------------------------------------------------------

    def route(self, src: int, dst: int) -> List[Edge]:
        """2/4/6 hops for same-edge, same-pod, and cross-pod pairs."""
        if src == dst:
            return []
        a, b = self.host_node(src), self.host_node(dst)
        src_edge: Node = ("s", self._edge_of(src))
        dst_edge: Node = ("s", self._edge_of(dst))
        if src_edge == dst_edge:
            return [(a, src_edge), (src_edge, b)]

        src_pod, dst_pod = self.pod_of(src), self.pod_of(dst)
        if src_pod == dst_pod:
            agg: Node = ("s", self._agg_for(src, dst, src_pod))
            return [(a, src_edge), (src_edge, agg), (agg, dst_edge),
                    (dst_edge, b)]

        agg_index = (src * 31 + dst * 7) % self._half
        up_agg: Node = ("s", self._agg_base + src_pod * self._half + agg_index)
        core: Node = ("s", self._core_for(src, dst, agg_index))
        down_agg: Node = ("s", self._agg_base + dst_pod * self._half
                          + agg_index)
        return [(a, src_edge), (src_edge, up_agg), (up_agg, core),
                (core, down_agg), (down_agg, dst_edge), (dst_edge, b)]

    def diameter_hops(self) -> int:
        """6 hops through the core (2 for the degenerate k=2 tree)."""
        return 6 if self.radix > 2 else 2

    def bisection_links(self) -> int:
        """Full bisection: half the hosts' worth of core-level links."""
        return self.hosts // 2

    @property
    def num_pods(self) -> int:
        """Pods in the fabric (equal to the switch radix)."""
        return self.radix

    @classmethod
    def radix_for_hosts(cls, hosts: int) -> int:
        """Smallest even radix whose fat tree holds ``hosts`` endpoints."""
        if hosts < 1:
            raise ValueError("hosts must be >= 1")
        radix = 2
        while radix ** 3 // 4 < hosts:
            radix += 2
        return radix
