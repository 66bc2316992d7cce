"""SPMD program harness: run one generator function per rank.

``run_spmd(4, body)`` builds a simulator + fabric + world, spawns ``body``
as a process per rank, runs the clock, and returns per-rank results with
the elapsed virtual time.  This is the entry point every application
kernel and benchmark uses::

    def body(comm):
        value = yield from comm.allreduce(comm.rank, SUM)
        return value

    result = run_spmd(8, body, technology="infiniband_4x")
    result.elapsed        # virtual seconds for the slowest rank
    result.results        # [28, 28, ..., 28]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, Union

from repro.messaging.comm import CommConfig, CommWorld, Communicator
from repro.network.fabric import Fabric, FabricFaultPlan
from repro.network.technologies import InterconnectTechnology, get_interconnect
from repro.network.topology import FatTreeTopology, SingleSwitchTopology, Topology
from repro.obs import Observability
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RandomStreams

__all__ = ["run_spmd", "make_world", "SpmdResult"]

#: Above this host count a single crossbar is unrealistic; default to a
#: full-bisection two-level fat tree instead.
_SINGLE_SWITCH_LIMIT = 64


@dataclass
class SpmdResult:
    """Outcome of one SPMD run."""

    #: Virtual time when the last rank finished (seconds).
    elapsed: float
    #: Per-rank return values, indexed by rank.
    results: List[Any]
    #: Per-rank finish times (seconds), indexed by rank.
    finish_times: List[float] = field(default_factory=list)
    #: Total bytes the fabric moved.
    bytes_moved: float = 0.0
    #: Total point-to-point transfers the fabric carried.
    transfer_count: int = 0

    @property
    def imbalance(self) -> float:
        """Max finish time over mean finish time (1.0 == perfectly even)."""
        if not self.finish_times:
            return 1.0
        mean = sum(self.finish_times) / len(self.finish_times)
        return max(self.finish_times) / mean if mean > 0 else 1.0


def _default_topology(hosts: int) -> Topology:
    if hosts <= _SINGLE_SWITCH_LIMIT:
        return SingleSwitchTopology(hosts)
    return FatTreeTopology(hosts, hosts_per_leaf=min(32, hosts))


def make_world(size: int, *,
               technology: Union[str, InterconnectTechnology] = "gigabit_ethernet",
               topology: Optional[Topology] = None,
               sim: Optional[Simulator] = None,
               contention: bool = True,
               config: Optional[CommConfig] = None,
               streams: Optional[RandomStreams] = None,
               fault_plan: Optional[FabricFaultPlan] = None,
               obs: Optional[Observability] = None) -> CommWorld:
    """Assemble simulator + topology + fabric + mailboxes for ``size`` ranks.

    Useful when a caller wants to co-locate other processes (fault
    injectors, monitors) in the same simulation; otherwise use
    :func:`run_spmd` directly.  ``config`` enables the fault-tolerant
    messaging machinery, ``fault_plan`` injects fabric faults,
    ``streams`` supplies the named RNG streams (retry jitter) that keep
    fault campaigns bit-reproducible, and ``obs`` attaches an
    observability recorder to the (newly created) simulator.
    """
    if size < 1:
        raise ValueError(f"need at least one rank, got {size}")
    if obs is not None and sim is not None:
        raise ValueError("pass obs via Simulator(obs=...) when supplying "
                         "an existing simulator")
    if isinstance(technology, str):
        technology = get_interconnect(technology)
    if topology is None:
        topology = _default_topology(size)
    if topology.hosts < size:
        raise ValueError(
            f"topology has {topology.hosts} hosts < {size} ranks"
        )
    simulator = sim if sim is not None else Simulator(obs=obs)
    fabric = Fabric(simulator, topology, technology,
                    contention=contention, fault_plan=fault_plan)
    return CommWorld(simulator, fabric, config=config, streams=streams)


def run_spmd(size: int,
             body: Callable[..., Any],
             *args: Any,
             technology: Union[str, InterconnectTechnology] = "gigabit_ethernet",
             topology: Optional[Topology] = None,
             contention: bool = True,
             obs: Optional[Observability] = None) -> SpmdResult:
    """Run ``body(comm, *args)`` as an SPMD program on ``size`` ranks.

    ``body`` must be a generator function; its return value becomes the
    rank's entry in :attr:`SpmdResult.results`.  Raises the first rank
    failure as-is, and :class:`SimulationError` on deadlock (event queue
    drained with ranks still blocked).  Pass an
    :class:`~repro.obs.Observability` as ``obs`` to capture spans and
    metrics for the whole run.  Fault-tolerant messaging and fabric
    faults need a world from :func:`make_world`.
    """
    world = make_world(size, technology=technology, topology=topology,
                       contention=contention, obs=obs)
    sim = world.sim

    finish_times: List[float] = [float("nan")] * size
    processes: List[Any] = []

    def rank_body(comm: Communicator) -> Generator[Any, Any, Any]:
        result = yield from body(comm, *args)
        finish_times[comm.rank] = sim.now
        return result

    for rank in range(size):
        process = sim.process(rank_body(world.communicator(rank)),
                              name=f"rank{rank}")
        process.defused = True  # failures re-raised below with context
        processes.append(process)

    sim.run()

    # Report a rank failure before any deadlock: a crashed rank is the
    # usual *cause* of the others blocking forever.
    for process in processes:
        if process.triggered and not process.ok:
            raise process.value
    for rank, process in enumerate(processes):
        if not process.triggered:
            raise SimulationError(
                f"deadlock: rank {rank} still blocked when the event queue "
                "drained (unmatched send/recv or collective order mismatch)"
            )

    return SpmdResult(
        elapsed=max(finish_times),
        results=[p.value for p in processes],
        finish_times=finish_times,
        bytes_moved=world.fabric.bytes_moved,
        transfer_count=world.fabric.transfer_count,
    )
