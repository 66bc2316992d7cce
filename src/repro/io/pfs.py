"""PVFS-class parallel file system over the simulated fabric.

Files are striped round-robin across storage nodes in fixed-size stripe
units.  A client ``write`` ships each stripe chunk over the fabric to its
server and then through that server's disk queue; chunks proceed
concurrently (one in-flight request per touched server), so aggregate
bandwidth scales with server count until the network or the disks
saturate — the behaviour the PVFS papers measured.

The model is intentionally request-level (no metadata server, no
consistency protocol): the experiments it serves are about *bandwidth
scaling*, which lives entirely in striping + contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.io.disk import DiskModel
from repro.network.fabric import Fabric
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.units import KIB

__all__ = ["StorageNode", "StripeChunk", "ParallelFileSystem"]


@dataclass(frozen=True)
class StripeChunk:
    """One contiguous piece of a striped byte range on one server."""

    server_index: int
    server_offset: int
    nbytes: int


class StorageNode:
    """One I/O server: a fabric host with a disk and a FIFO request queue."""

    def __init__(self, sim: Simulator, host: int, disk: DiskModel) -> None:
        self.host = host
        self.disk = disk
        self.queue = Resource(sim, capacity=1, name=f"iosrv{host}")
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        self.requests = 0

    def service_time(self, nbytes: int) -> float:
        """Disk time for one chunk (random positioning each request)."""
        return self.disk.access_time(nbytes, sequential=False)


class ParallelFileSystem:
    """Round-robin striped file service.

    Parameters
    ----------
    sim, fabric:
        The simulation and transport; storage hosts must be valid fabric
        hosts (by convention the top of the host range, so compute ranks
        0..p-1 and servers p..p+s-1 share one topology).
    server_hosts:
        Fabric host ids running storage service.
    stripe_bytes:
        Stripe unit; the PVFS default of 64 KiB unless overridden.
    disk:
        Disk model shared by all servers.
    """

    def __init__(self, sim: Simulator, fabric: Fabric,
                 server_hosts: Sequence[int],
                 stripe_bytes: int = 64 * KIB,
                 disk: DiskModel = DiskModel()) -> None:
        if not server_hosts:
            raise ValueError("need at least one storage server")
        if len(set(server_hosts)) != len(server_hosts):
            raise ValueError("duplicate server hosts")
        if stripe_bytes < 1:
            raise ValueError("stripe size must be >= 1 byte")
        for host in server_hosts:
            if not 0 <= host < fabric.topology.hosts:
                raise ValueError(f"server host {host} not on the fabric")
        self.sim = sim
        self.fabric = fabric
        self.stripe_bytes = int(stripe_bytes)
        self.servers: List[StorageNode] = [
            StorageNode(sim, host, disk) for host in server_hosts
        ]

    # -- striping geometry -------------------------------------------------

    def map_range(self, offset: int, nbytes: int) -> List[StripeChunk]:
        """Stripe chunks covering ``[offset, offset + nbytes)``.

        Chunks are returned in file order; adjacent stripe units on the
        same server are *not* merged (each is a separate request, as the
        wire protocol would issue them).
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        chunks: List[StripeChunk] = []
        position = offset
        remaining = nbytes
        count = len(self.servers)
        while remaining > 0:
            stripe_index = position // self.stripe_bytes
            within = position % self.stripe_bytes
            take = min(self.stripe_bytes - within, remaining)
            server_index = stripe_index % count
            # Server-local offset: full stripes this server already holds
            # below this one, plus the offset within the current stripe.
            local_stripe = stripe_index // count
            server_offset = local_stripe * self.stripe_bytes + within
            chunks.append(StripeChunk(server_index=server_index,
                                      server_offset=server_offset,
                                      nbytes=take))
            position += take
            remaining -= take
        return chunks

    # -- client operations (generators; use from a rank process) -----------

    def write(self, client_host: int, offset: int, nbytes: int):
        """Write ``nbytes`` at ``offset``; completes when durable on all
        touched servers.  Chunks to distinct servers proceed concurrently."""
        result = yield from self._io(client_host, offset, nbytes,
                                     is_write=True)
        return result

    def read(self, client_host: int, offset: int, nbytes: int):
        """Read ``nbytes`` at ``offset``; completes when the last byte
        reaches the client."""
        result = yield from self._io(client_host, offset, nbytes,
                                     is_write=False)
        return result

    def _io(self, client_host: int, offset: int, nbytes: int,
            is_write: bool):
        if nbytes == 0:
            return 0
        chunks = self.map_range(offset, nbytes)
        processes = [
            self.sim.process(
                self._chunk_io(client_host, chunk, is_write),
                name=f"pfs{'W' if is_write else 'R'}",
            )
            for chunk in chunks
        ]
        yield self.sim.all_of(processes)
        return nbytes

    def _chunk_io(self, client_host: int, chunk: StripeChunk,
                  is_write: bool):
        server = self.servers[chunk.server_index]
        if is_write:
            # Data travels client -> server, then hits the disk.
            yield from self.fabric.transfer_ex(client_host, server.host,
                                               chunk.nbytes)
            yield server.queue.request()
            yield self.sim.timeout(server.service_time(chunk.nbytes))
            server.queue.release()
            server.bytes_written += chunk.nbytes
        else:
            # Request reaches the server (tiny), disk reads, data returns.
            yield from self.fabric.transfer_ex(client_host, server.host, 64)
            yield server.queue.request()
            yield self.sim.timeout(server.service_time(chunk.nbytes))
            server.queue.release()
            yield from self.fabric.transfer_ex(server.host, client_host,
                                               chunk.nbytes)
            server.bytes_read += chunk.nbytes
        server.requests += 1

    # -- noncontiguous (list) I/O -------------------------------------------

    def write_regions(self, client_host: int, regions, *,
                      list_io: bool = True):
        """Write several ``(offset, nbytes)`` regions in one call.

        ``list_io=True`` batches all regions' chunks into one request
        wave per server (one network message carrying the region list,
        then the data, then one *sequential* disk pass per server) — the
        access method the PVFS "list I/O" work introduced.
        ``list_io=False`` issues each region as an independent write
        (one request + one seek per chunk), the pre-list-I/O behaviour
        its evaluation measured against.  Bench E18 reproduces the gap.
        """
        result = yield from self._regions_io(client_host, regions,
                                             list_io=list_io,
                                             is_write=True)
        return result

    def read_regions(self, client_host: int, regions, *,
                     list_io: bool = True):
        """Read several ``(offset, nbytes)`` regions in one call."""
        result = yield from self._regions_io(client_host, regions,
                                             list_io=list_io,
                                             is_write=False)
        return result

    def _regions_io(self, client_host: int, regions, *, list_io: bool,
                    is_write: bool):
        regions = list(regions)
        for offset, nbytes in regions:
            if offset < 0 or nbytes < 0:
                raise ValueError("regions need non-negative offset/nbytes")
        total = sum(nbytes for _offset, nbytes in regions)
        if total == 0:
            return 0
        if not list_io:
            # Naive: every region is its own independent operation.
            processes = [
                self.sim.process(self._io(client_host, offset, nbytes,
                                          is_write),
                                 name="pfs-region")
                for offset, nbytes in regions if nbytes > 0
            ]
            yield self.sim.all_of(processes)
            return total

        # List I/O: group every chunk by server, then one batched
        # request per server.
        by_server = {}
        for offset, nbytes in regions:
            for chunk in self.map_range(offset, nbytes):
                by_server.setdefault(chunk.server_index, []).append(chunk)
        processes = [
            self.sim.process(
                self._batched_server_io(client_host, server_index, chunks,
                                        is_write),
                name="pfs-listio")
            for server_index, chunks in by_server.items()
        ]
        yield self.sim.all_of(processes)
        return total

    def _batched_server_io(self, client_host: int, server_index: int,
                           chunks, is_write: bool):
        """One wire transfer + one disk pass for a whole chunk list.

        The disk pays a single positioning cost and then streams (the
        server sorts the chunk list by offset — the core list-I/O win);
        the network carries the data plus a small per-chunk descriptor.
        """
        server = self.servers[server_index]
        total = sum(chunk.nbytes for chunk in chunks)
        descriptors = 16 * len(chunks)
        disk_time = server.disk.access_time(total, sequential=False) \
            + (len(chunks) - 1) * 0.0  # one seek only: sorted pass
        if is_write:
            yield from self.fabric.transfer_ex(client_host, server.host,
                                               total + descriptors)
            yield server.queue.request()
            yield self.sim.timeout(disk_time)
            server.queue.release()
            server.bytes_written += total
        else:
            yield from self.fabric.transfer_ex(client_host, server.host,
                                               64 + descriptors)
            yield server.queue.request()
            yield self.sim.timeout(disk_time)
            server.queue.release()
            yield from self.fabric.transfer_ex(server.host, client_host,
                                               total)
            server.bytes_read += total
        server.requests += 1

    # -- bookkeeping --------------------------------------------------------

    @property
    def total_bytes_written(self) -> float:
        """Bytes written across every server."""
        return sum(server.bytes_written for server in self.servers)

    @property
    def total_bytes_read(self) -> float:
        """Bytes read across every server."""
        return sum(server.bytes_read for server in self.servers)

    def server_balance(self) -> float:
        """max/mean of per-server written bytes (1.0 == perfectly even)."""
        written = [server.bytes_written for server in self.servers]
        mean = sum(written) / len(written)
        return max(written) / mean if mean > 0 else 1.0
