"""Checkpoint I/O: where the fault model meets the storage model.

A checkpoint dumps (a fraction of) every node's memory to the parallel
file system.  Its duration is the machine-size-dependent quantity that
E8/E9 previously took as a constant; here it is derived:

* :func:`checkpoint_write_time` — analytic: aggregate dump bytes over the
  binding bottleneck (client injection, server ingest links, or server
  disks);
* :func:`simulate_checkpoint_write` — the same dump executed on the
  simulated fabric + PFS, validating the analytic bound;
* :func:`derive_checkpoint_params` — package the result as
  :class:`repro.fault.CheckpointParams` for the Daly machinery.

The headline phenomenon (bench E14): with a *fixed* I/O subsystem,
checkpoint time grows linearly with machine memory while MTBF shrinks as
1/n — efficiency collapses quadratically-ish unless I/O servers scale
with the machine.
"""

from __future__ import annotations

from repro.fault.checkpoint import CheckpointParams
from repro.fault.models import system_mtbf
from repro.io.disk import DiskModel
from repro.io.pfs import ParallelFileSystem
from repro.network.fabric import Fabric
from repro.network.technologies import InterconnectTechnology
from repro.network.topology import FatTreeTopology
from repro.sim.engine import Simulator
from repro.units import MIB

__all__ = [
    "checkpoint_write_time",
    "simulate_checkpoint_write",
    "derive_checkpoint_params",
]


def checkpoint_write_time(dump_bytes_per_node: float, node_count: int,
                          server_count: int,
                          link_bandwidth: float,
                          disk: DiskModel = DiskModel()) -> float:
    """Analytic lower bound on the aggregate dump time.

    Three candidate bottlenecks, take the slowest:

    * clients injecting: each node pushes its dump up its own link;
    * servers ingesting: all traffic funnels into ``server_count`` links;
    * disks: all traffic lands on ``server_count`` spindles.
    """
    if dump_bytes_per_node < 0:
        raise ValueError("dump size must be non-negative")
    if node_count < 1 or server_count < 1:
        raise ValueError("need at least one node and one server")
    if link_bandwidth <= 0:
        raise ValueError("link bandwidth must be positive")
    total = dump_bytes_per_node * node_count
    client_time = dump_bytes_per_node / link_bandwidth
    ingest_time = total / (server_count * link_bandwidth)
    disk_time = total / (server_count * disk.transfer_bytes_per_second)
    return max(client_time, ingest_time, disk_time)


def simulate_checkpoint_write(node_count: int, server_count: int,
                              dump_bytes_per_node: int,
                              technology: InterconnectTechnology,
                              stripe_bytes: int = MIB,
                              disk: DiskModel = DiskModel()) -> float:
    """Execute the dump on a simulated fabric + PFS; returns seconds.

    Compute nodes are hosts ``0..node_count-1`` and storage servers the
    hosts above them, on a full-bisection fat tree.  Each node writes its
    own disjoint region of one shared checkpoint file (N-to-M striping).
    """
    if node_count < 1 or server_count < 1:
        raise ValueError("need at least one node and one server")
    sim = Simulator()
    hosts = node_count + server_count
    topology = FatTreeTopology(hosts, hosts_per_leaf=min(32, hosts))
    fabric = Fabric(sim, topology, technology)
    pfs = ParallelFileSystem(
        sim, fabric,
        server_hosts=list(range(node_count, hosts)),
        stripe_bytes=stripe_bytes,
        disk=disk,
    )

    def writer(node: int):
        offset = node * dump_bytes_per_node
        yield from pfs.write(node, offset, dump_bytes_per_node)
        return sim.now

    processes = [sim.process(writer(node), name=f"ckpt{node}")
                 for node in range(node_count)]
    sim.run()
    for process in processes:
        if not process.ok:
            raise process.value
    return max(process.value for process in processes)


def derive_checkpoint_params(memory_bytes_per_node: float,
                             node_count: int,
                             server_count: int,
                             link_bandwidth: float,
                             node_mtbf_seconds: float,
                             dump_fraction: float = 0.5,
                             disk: DiskModel = DiskModel(),
                             restart_factor: float = 2.0,
                             ) -> CheckpointParams:
    """Checkpoint parameters with the write time *derived* from the
    storage system instead of assumed.

    ``dump_fraction`` is the checkpointed share of memory (applications
    rarely dump everything); restart reads the same data back plus
    relaunch overhead, modelled as ``restart_factor`` times the write.
    """
    if not 0 < dump_fraction <= 1:
        raise ValueError("dump_fraction must be in (0, 1]")
    if restart_factor < 1:
        raise ValueError("restart cannot be faster than the write")
    delta = checkpoint_write_time(
        memory_bytes_per_node * dump_fraction, node_count, server_count,
        link_bandwidth, disk,
    )
    return CheckpointParams(
        checkpoint_seconds=delta,
        restart_seconds=delta * restart_factor,
        system_mtbf_seconds=system_mtbf(node_mtbf_seconds, node_count),
    )
