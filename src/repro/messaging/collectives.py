"""Collective communication algorithms.

Implementations follow the canonical MPICH/Open MPI algorithm families the
2002-era literature was standardising:

* **barrier** — dissemination (⌈log₂ p⌉ rounds, any p);
* **bcast** — binomial tree (latency-optimal for short data);
* **allreduce** — three selectable algorithms, because the choice is a
  design decision bench E13 ablates:

  - ``recursive_doubling`` (log p rounds, full vector each round; best for
    short vectors / low latency networks),
  - ``ring`` (2(p−1) rounds, 1/p of the vector each round;
    bandwidth-optimal for long vectors),
  - ``rabenseifner`` (recursive-halving reduce-scatter + recursive-doubling
    allgather; bandwidth-optimal with log p rounds, power-of-two p);

* **gather** — linear to root;
* **allgather** — ring;
* **alltoall** — pairwise exchange (XOR partners for power-of-two p).

All functions are generator bodies taking the calling rank's
:class:`~repro.messaging.comm.Communicator`; they are not public API —
users call the ``Communicator`` methods.

Reduction operators are assumed commutative and associative (all the
built-ins in :mod:`repro.messaging.message` are).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.messaging.comm import Communicator
    from repro.sim.event import Event

__all__ = [
    "COLLECTIVE_TAG_BASE",
    "barrier",
    "bcast",
    "allreduce",
    "gather",
    "allgather",
    "alltoall",
]

#: Collective tags live far above any user tag.
COLLECTIVE_TAG_BASE = 1 << 20  # repro: noqa[REP003] tag namespace offset, not bytes

#: Zero-byte token for synchronisation-only messages.
_TOKEN = b""


def barrier(comm: Communicator) -> Generator[Event, Any, None]:
    """Dissemination barrier: after round k every rank has heard (directly
    or transitively) from 2^k others; ⌈log₂ p⌉ rounds total."""
    tag = comm._next_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return None
    distance = 1
    while distance < size:
        request = comm.isend(_TOKEN, (rank + distance) % size, tag)
        yield from comm.recv((rank - distance) % size, tag)
        yield from request.wait()
        distance <<= 1
    return None


def bcast(comm: Communicator, obj: Any, root: int = 0
          ) -> Generator[Event, Any, Any]:
    """Binomial-tree broadcast (MPICH formulation)."""
    comm._check_peer(root, "root")
    tag = comm._next_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    relative = (rank - root) % size
    mask = 1
    while mask < size:
        if relative & mask:
            source = (relative - mask + root) % size
            obj = yield from comm.recv(source, tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            dest = (relative + mask + root) % size
            yield from comm.send(obj, dest, tag)
        mask >>= 1
    return obj


# -- allreduce family ------------------------------------------------------

def allreduce(comm: Communicator, obj: Any, op: Callable,
              algorithm: str = "recursive_doubling"
              ) -> Generator[Event, Any, Any]:
    """Dispatch to the selected allreduce algorithm.

    ``ring`` and ``rabenseifner`` need a numpy vector long enough to chunk
    (and power-of-two ranks, for rabenseifner); when preconditions fail
    they quietly fall back to recursive doubling — the same adaptive
    behaviour real MPI libraries implement.
    """
    if algorithm == "recursive_doubling":
        result = yield from _allreduce_recursive_doubling(comm, obj, op)
        return result
    if algorithm == "ring":
        if _chunkable(obj, comm.size):
            result = yield from _allreduce_ring(comm, obj, op)
        else:
            result = yield from _allreduce_recursive_doubling(comm, obj, op)
        return result
    if algorithm == "rabenseifner":
        power_of_two = comm.size & (comm.size - 1) == 0
        if power_of_two and _chunkable(obj, comm.size):
            result = yield from _allreduce_rabenseifner(comm, obj, op)
        else:
            result = yield from _allreduce_recursive_doubling(comm, obj, op)
        return result
    raise ValueError(
        f"unknown allreduce algorithm {algorithm!r}; choose from "
        "['recursive_doubling', 'ring', 'rabenseifner']"
    )


def _chunkable(obj: Any, size: int) -> bool:
    return isinstance(obj, np.ndarray) and obj.size >= size


def _allreduce_recursive_doubling(comm: Communicator, obj: Any,
                                  op: Callable
                                  ) -> Generator[Event, Any, Any]:
    """MPICH recursive doubling with the standard non-power-of-two
    fold-in/fold-out phases."""
    tag = comm._next_tag()
    size, rank = comm.size, comm.rank
    result = obj
    if size == 1:
        return result
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    remainder = size - pof2

    # Phase 1: fold the first 2*remainder ranks down to `remainder` ranks.
    if rank < 2 * remainder:
        if rank % 2 == 0:
            yield from comm.send(result, rank + 1, tag)
            virtual = -1  # drops out of phase 2
        else:
            incoming = yield from comm.recv(rank - 1, tag)
            result = op(result, incoming)
            virtual = rank // 2
    else:
        virtual = rank - remainder

    # Phase 2: recursive doubling among pof2 virtual ranks.
    if virtual != -1:
        mask = 1
        while mask < pof2:
            virtual_peer = virtual ^ mask
            peer = (virtual_peer * 2 + 1 if virtual_peer < remainder
                    else virtual_peer + remainder)
            request = comm.isend(result, peer, tag)
            incoming = yield from comm.recv(peer, tag)
            yield from request.wait()
            result = op(result, incoming)
            mask <<= 1

    # Phase 3: hand results back to the folded-out ranks.
    if rank < 2 * remainder:
        if rank % 2 == 1:
            yield from comm.send(result, rank - 1, tag)
        else:
            result = yield from comm.recv(rank + 1, tag)
    return result


def _allreduce_ring(comm: Communicator, array: np.ndarray, op: Callable
                    ) -> Generator[Event, Any, np.ndarray]:
    """Bandwidth-optimal ring: reduce-scatter then allgather, each p−1
    rounds moving 1/p of the vector."""
    tag = comm._next_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return array
    flat = np.asarray(array).ravel().copy()
    chunks = np.array_split(flat, size)  # views into flat
    right = (rank + 1) % size
    left = (rank - 1) % size

    send_index = rank
    recv_index = (rank - 1) % size
    for _step in range(size - 1):
        request = comm.isend(chunks[send_index].copy(), right, tag)
        incoming = yield from comm.recv(left, tag)
        yield from request.wait()
        chunks[recv_index][:] = op(chunks[recv_index], incoming)
        send_index = recv_index
        recv_index = (recv_index - 1) % size

    # Rank r now owns the fully-reduced chunk (r+1) mod p; circulate it.
    send_index = (rank + 1) % size
    recv_index = rank
    for _step in range(size - 1):
        request = comm.isend(chunks[send_index].copy(), right, tag)
        incoming = yield from comm.recv(left, tag)
        yield from request.wait()
        chunks[recv_index][:] = incoming
        send_index = recv_index
        recv_index = (recv_index - 1) % size

    return flat.reshape(np.asarray(array).shape)


def _allreduce_rabenseifner(comm: Communicator, array: np.ndarray,
                            op: Callable
                            ) -> Generator[Event, Any, np.ndarray]:
    """Reduce-scatter by recursive halving, then allgather by recursive
    doubling.  Power-of-two ranks only (dispatcher guarantees it)."""
    tag = comm._next_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return array
    flat = np.asarray(array).ravel().copy()

    lo, hi = 0, flat.size
    history = []  # (partner, kept_lo, kept_hi, other_lo, other_hi)
    mask = size >> 1
    while mask >= 1:
        partner = rank ^ mask
        mid = lo + (hi - lo) // 2
        if rank < partner:
            keep = (lo, mid)
            other = (mid, hi)
        else:
            keep = (mid, hi)
            other = (lo, mid)
        request = comm.isend(flat[other[0]:other[1]].copy(), partner, tag)
        incoming = yield from comm.recv(partner, tag)
        yield from request.wait()
        flat[keep[0]:keep[1]] = op(flat[keep[0]:keep[1]], incoming)
        history.append((partner, keep[0], keep[1], other[0], other[1]))
        lo, hi = keep
        mask >>= 1

    # Allgather: replay the exchanges in reverse, each time sending the
    # (now complete) kept segment and filling in the partner's half.
    for partner, keep_lo, keep_hi, other_lo, other_hi in reversed(history):
        request = comm.isend(flat[keep_lo:keep_hi].copy(), partner, tag)
        incoming = yield from comm.recv(partner, tag)
        yield from request.wait()
        flat[other_lo:other_hi] = incoming

    return flat.reshape(np.asarray(array).shape)


# -- gather ----------------------------------------------------------------

def gather(comm: Communicator, obj: Any, root: int = 0
           ) -> Generator[Event, Any, Optional[List[Any]]]:
    """Linear gather; root returns the list ordered by source rank."""
    comm._check_peer(root, "root")
    tag = comm._next_tag()
    size, rank = comm.size, comm.rank
    if rank != root:
        yield from comm.send(obj, root, tag)
        return None
    results: List[Any] = [None] * size
    results[root] = comm._isolate(obj)
    for _ in range(size - 1):
        payload, status = yield from comm.recv_with_status(tag=tag)
        results[status.source] = payload
    return results


def allgather(comm: Communicator, obj: Any
              ) -> Generator[Event, Any, List[Any]]:
    """Ring allgather: p−1 rounds, each forwarding what arrived last."""
    tag = comm._next_tag()
    size, rank = comm.size, comm.rank
    results: List[Any] = [None] * size
    results[rank] = comm._isolate(obj)
    if size == 1:
        return results
    right = (rank + 1) % size
    left = (rank - 1) % size
    forwarding = results[rank]
    for step in range(size - 1):
        request = comm.isend(forwarding, right, tag)
        incoming = yield from comm.recv(left, tag)
        yield from request.wait()
        source = (rank - step - 1) % size
        results[source] = incoming
        forwarding = incoming
    return results


def alltoall(comm: Communicator, objs: List[Any]
             ) -> Generator[Event, Any, List[Any]]:
    """Pairwise-exchange alltoall; returns the list indexed by source."""
    size, rank = comm.size, comm.rank
    if objs is None or len(objs) != size:
        raise ValueError(
            f"alltoall needs exactly {size} items, got "
            f"{None if objs is None else len(objs)}"
        )
    tag = comm._next_tag()
    results: List[Any] = [None] * size
    results[rank] = comm._isolate(objs[rank])
    power_of_two = size & (size - 1) == 0
    for step in range(1, size):
        if power_of_two:
            send_to = recv_from = rank ^ step
        else:
            send_to = (rank + step) % size
            recv_from = (rank - step) % size
        request = comm.isend(objs[send_to], send_to, tag)
        results[recv_from] = yield from comm.recv(recv_from, tag)
        yield from request.wait()
    return results
