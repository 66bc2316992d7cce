"""The per-rank communicator: point-to-point messaging and requests.

Every blocking operation is a generator driven with ``yield from`` — that
is how a simulated process blocks.  Semantics follow MPI where it matters:

* ``send`` is *buffered/eager*: the sender resumes after paying its local
  injection cost (overhead + serialization); delivery continues in the
  background.  Exchange patterns therefore do not deadlock, matching what
  real MPIs give you for eager-size messages.
* ``recv`` matches on (source, tag) with ``ANY_SOURCE``/``ANY_TAG``
  wildcards, non-overtaking per (source, tag) pair.
* ``isend``/``irecv`` return :class:`Request` handles with
  ``wait``/``test``.

Collective operations live in :mod:`repro.messaging.collectives`; the
methods here delegate so user code only ever touches ``Communicator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Generator,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.messaging import collectives as _collectives
from repro.messaging.message import (
    ANY_SOURCE,
    ANY_TAG,
    ENVELOPE_BYTES,
    Envelope,
    Status,
    SUM,
    payload_nbytes,
)
from repro.network.fabric import Fabric, NetworkUnreachable, TransferDropped
from repro.obs import NULL_SPAN
from repro.sim.engine import Process, Simulator
from repro.sim.event import AnyOf, Event
from repro.sim.resources import Store
from repro.sim.rng import RandomStreams

__all__ = ["Communicator", "Request", "CommWorld", "SubCommunicator",
           "CommConfig", "CommStats", "RankFailure", "CommTimeout",
           "DeliveryError", "waitall"]


class RankFailure(RuntimeError):
    """A peer rank has failed; the operation cannot complete.

    Raised by fault-aware receives, sends to dead peers, and at
    collective entry (so collectives error out instead of hanging, in
    the FT-MPI/ULFM tradition).  ``ranks`` holds the failed ranks in the
    raising communicator's local numbering.
    """

    def __init__(self, ranks: Iterable[int], message: str = "") -> None:
        self.ranks: FrozenSet[int] = frozenset(ranks)
        super().__init__(
            message or f"rank(s) {sorted(self.ranks)} failed"
        )


class CommTimeout(RuntimeError):
    """A blocking operation exceeded its timeout without completing."""


class DeliveryError(RuntimeError):
    """Reliable delivery gave up after exhausting its retry budget."""


#: Retransmission ``a`` of a reliable send waits out the ack allowance
#: plus ``min(BACKOFF_CAP, BACKOFF_BASE * BACKOFF_FACTOR ** (a - 1))``
#: seconds of backoff, stretched by ``1 + JITTER * U[0, 1)`` when the
#: world has streams.
BACKOFF_BASE = 20e-6
#: Growth of the backoff per retransmission.
BACKOFF_FACTOR = 2.0
#: Longest backoff, in seconds.
BACKOFF_CAP = 50e-3
#: Jitter fraction of the backoff.
JITTER = 0.25


@dataclass(frozen=True)
class CommConfig:
    """Fault-tolerance knobs for a :class:`CommWorld`.

    The zero-argument default leaves every new code path disabled, so a
    plain world behaves (and times) exactly as before this machinery
    existed.  ``reliable`` turns sends into retransmit-until-acked
    delivery (an ack allowance of a few uncontended round trips, then
    the backoff above); ``fault_aware`` arms failure notices so blocked
    receives and collectives raise :class:`RankFailure` instead of
    hanging when a peer dies.
    """

    #: Retransmit-until-acknowledged sends (drops/corruption survivable).
    reliable: bool = False
    #: Raise RankFailure from receives/collectives when a peer has died.
    fault_aware: bool = False
    #: Retransmissions after the first attempt before DeliveryError.
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @property
    def active(self) -> bool:
        """True when any fault-tolerance machinery is enabled."""
        return self.reliable or self.fault_aware


@dataclass
class CommStats:
    """Counters the fault-tolerance machinery accumulates per world."""

    retries: int = 0
    acks: int = 0
    duplicates: int = 0
    losses: int = 0
    corrupt_discarded: int = 0
    op_timeouts: int = 0
    delivery_failures: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy, for campaign reports and determinism checks."""
        return {
            "retries": self.retries,
            "acks": self.acks,
            "duplicates": self.duplicates,
            "losses": self.losses,
            "corrupt_discarded": self.corrupt_discarded,
            "op_timeouts": self.op_timeouts,
            "delivery_failures": self.delivery_failures,
        }


class CommWorld:
    """Shared state for one set of communicating ranks: the simulator, the
    fabric, one mailbox per rank, and (optionally) the fault-tolerance
    machinery configured by a :class:`CommConfig`."""

    def __init__(self, sim: Simulator, fabric: Fabric,
                 config: Optional[CommConfig] = None,
                 streams: Optional[RandomStreams] = None) -> None:
        self.sim = sim
        self.fabric = fabric
        self.size = fabric.topology.hosts
        self.config = config if config is not None else CommConfig()
        self.streams = streams
        self.mailboxes: List[Store] = [
            Store(sim, name=f"mbox{rank}") for rank in range(self.size)
        ]
        #: World ranks known to have failed (fault-aware mode).
        self.failed: Set[int] = set()
        self.stats = CommStats()
        self._failure_event: Event = sim.event("rank-failure")
        self._failure_event.defused = True
        self._seq = 0
        #: Sequence numbers already deposited at their destination —
        #: the receiver-side dedup table for reliable delivery.
        self._delivered_seqs: Set[int] = set()
        self._jitter_rng = (streams.get("messaging.retry.jitter")
                            if streams is not None else None)

    def communicator(self, rank: int) -> "Communicator":
        """The rank-local view of this world."""
        return Communicator(self, rank)

    # -- failure bookkeeping (fault-aware mode) ---------------------------

    def fail_rank(self, rank: int) -> None:
        """Declare a world rank dead: wakes every blocked fault-aware
        operation so it can raise :class:`RankFailure`."""
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} out of range [0, {self.size})")
        if rank in self.failed:
            return
        self.failed.add(rank)
        notice, self._failure_event = (
            self._failure_event, self.sim.event("rank-failure"))
        self._failure_event.defused = True
        notice.succeed(frozenset(self.failed))

    def failure_notice(self) -> Event:
        """The event that fires at the *next* rank failure."""
        return self._failure_event

    def next_seq(self) -> int:
        """World-unique sequence number for reliable delivery."""
        self._seq += 1
        return self._seq

    def ack_timeout_for(self, src_world: int, dst_world: int,
                        nbytes: int) -> float:
        """Retransmit allowance: a few uncontended round trips."""
        forward = self.fabric.uncontended_time(src_world, dst_world, nbytes)
        back = self.fabric.uncontended_time(dst_world, src_world,
                                            ENVELOPE_BYTES)
        return 4.0 * (forward + back)

    def retry_backoff(self, attempt: int) -> float:
        """Backoff before retransmission ``attempt`` (1-based), with
        jitter from the ``messaging.retry.jitter`` stream when streams
        were provided (bit-reproducible for a fixed seed)."""
        backoff = min(BACKOFF_CAP,
                      BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))
        if self._jitter_rng is not None:
            backoff *= 1.0 + JITTER * float(self._jitter_rng.random())
        return backoff


class Request:
    """Handle to a non-blocking operation (wraps the background process)."""

    def __init__(self, process: Process) -> None:
        self._process = process
        self._process.defused = True  # failure surfaces via wait(), not engine

    @property
    def complete(self) -> bool:
        """True once the operation has finished."""
        return self._process.triggered

    def wait(self) -> Generator[Event, Any, Any]:
        """Generator: block until the operation finishes, return its value
        (the received object for ``irecv``, ``None`` for ``isend``)."""
        value = yield self._process
        return value

    def test(self) -> Tuple[bool, Any]:
        """Non-blocking completion check: ``(done, value_or_None)``."""
        if self._process.triggered:
            if not self._process.ok:
                raise self._process.value
            return True, self._process.value
        return False, None


def waitall(requests: Iterable[Request]) -> Generator[Event, Any, List[Any]]:
    """Generator: wait for every request; returns their values in order."""
    values: List[Any] = []
    for request in requests:
        value = yield from request.wait()
        values.append(value)
    return values


class Communicator:
    """One rank's endpoint, mpi4py-idiom surface.

    SPMD contract for collectives: every rank of the world calls the same
    collectives in the same order (tags are sequenced per rank under this
    assumption, exactly like real MPI contexts).
    """

    def __init__(self, world: CommWorld, rank: int) -> None:
        if not 0 <= rank < world.size:
            raise IndexError(f"rank {rank} out of range [0, {world.size})")
        self.world = world
        self.rank = rank
        self.size = world.size
        self._collective_seq = 0
        self._split_seq = 0
        #: Message context: 0 is the world; split() derives fresh ones.
        self._context: Any = 0

    # -- rank translation (identity in the world communicator) ------------

    def _to_world(self, rank: int) -> int:
        """Local rank -> world (fabric/mailbox) rank."""
        return rank

    def _from_world(self, world_rank: int) -> int:
        """World rank -> local rank."""
        return world_rank

    @property
    def sim(self) -> Simulator:
        """The simulator this communicator's world runs on."""
        return self.world.sim

    # -- internals --------------------------------------------------------

    def _op_span(self, op: str) -> Any:
        """Span + entry counter for one messaging operation.

        Hot-path guard: returns the shared null span without building
        any attribute dict when observability is disabled, keeping the
        per-message overhead to an attribute lookup and a branch.
        """
        obs = self.sim.obs
        if not obs.enabled:
            return NULL_SPAN
        obs.metrics.counter("comm.ops", op=op, rank=str(self.rank)).inc()
        return obs.span(f"comm.{op}", rank=self.rank)

    def _check_peer(self, peer: int, what: str) -> None:
        if not 0 <= peer < self.size:
            raise IndexError(f"{what} rank {peer} out of range [0, {self.size})")

    @staticmethod
    def _isolate(obj: Any) -> Any:
        """Copy mutable buffers at the send boundary so sender-side writes
        after send cannot corrupt in-flight data (value semantics)."""
        if isinstance(obj, np.ndarray):
            return obj.copy()
        return obj

    def _transfer_body(self, dest: int, tag: int, payload: Any, nbytes: int
                       ) -> Generator[Event, Any, None]:
        """Process body: move the bytes, then deposit in dest's mailbox.

        ``dest`` is a *local* rank; routing happens in world coordinates,
        but the envelope records local ranks plus this communicator's
        context so receives match within the right communicator.

        Under a fabric fault plan this is *unreliable* ("best effort")
        delivery: dropped or corrupted transfers vanish silently (a NIC
        discards a bad checksum), counted in the world's stats.  Use the
        reliable path (``CommConfig.reliable``) to survive them.
        """
        world = self.world
        dest_world = self._to_world(dest)
        src_world = self._to_world(self.rank)
        try:
            outcome = yield from world.fabric.transfer_ex(
                src_world, dest_world, nbytes)
        except (TransferDropped, NetworkUnreachable):
            world.stats.losses += 1
            return
        if outcome.corrupted:
            world.stats.corrupt_discarded += 1
            return
        envelope = Envelope(source=self.rank, dest=dest, tag=tag,
                            payload=payload, nbytes=nbytes,
                            context=self._context)
        yield world.mailboxes[dest_world].put(envelope)

    def _start_transfer(self, dest: int, tag: int, obj: Any
                        ) -> Tuple[Process, int]:
        payload = self._isolate(obj)
        nbytes = payload_nbytes(payload)
        body = (self._reliable_body(dest, tag, payload, nbytes)
                if self.world.config.reliable
                else self._transfer_body(dest, tag, payload, nbytes))
        process = self.sim.process(
            body, name=f"xfer{self.rank}->{dest}#{tag}",
        )
        return process, nbytes

    def _reliable_body(self, dest: int, tag: int, payload: Any, nbytes: int
                       ) -> Generator[Event, Any, None]:
        """Process body: retransmit-until-acknowledged delivery.

        Each attempt moves the bytes; corrupted arrivals are discarded by
        the receiving NIC (no ack), so the sender retransmits after an
        adaptive ack timeout plus exponential backoff with jitter.  A
        successful deposit is acknowledged over the fabric; a lost ack
        triggers a retransmission that the destination's dedup table
        absorbs (the duplicate is re-acked, not re-delivered).  Gives up
        with :class:`DeliveryError` after ``max_retries`` retransmits,
        and with :class:`RankFailure` when the destination is known dead.
        """
        world = self.world
        cfg = world.config
        fabric = world.fabric
        seq = world.next_seq()
        dest_world = self._to_world(dest)
        src_world = self._to_world(self.rank)
        rto = world.ack_timeout_for(src_world, dest_world, nbytes)
        attempt = 0
        while True:
            if cfg.fault_aware and dest_world in world.failed:
                raise RankFailure({dest}, f"send to dead rank {dest}")
            attempt += 1
            try:
                outcome = yield from fabric.transfer_ex(
                    src_world, dest_world, nbytes)
                if outcome.corrupted:
                    # Receiver NIC drops the bad frame: no ack will come.
                    world.stats.corrupt_discarded += 1
                    raise TransferDropped("corrupted frame discarded")
                if seq not in world._delivered_seqs:
                    world._delivered_seqs.add(seq)
                    envelope = Envelope(source=self.rank, dest=dest,
                                        tag=tag, payload=payload,
                                        nbytes=nbytes,
                                        context=self._context,
                                        reliable=True, seq=seq)
                    yield world.mailboxes[dest_world].put(envelope)
                else:
                    world.stats.duplicates += 1
                # Acknowledgment rides back over the fabric; its loss is
                # survivable (the retransmit hits the dedup table).
                yield from fabric.transfer_ex(dest_world, src_world,
                                              ENVELOPE_BYTES)
                world.stats.acks += 1
                return None
            except (TransferDropped, NetworkUnreachable):
                obs = self.sim.obs
                if attempt > cfg.max_retries:
                    world.stats.delivery_failures += 1
                    obs.instant("comm.delivery_failure", dest=dest, tag=tag)
                    obs.metrics.counter("comm.delivery_failures").inc()
                    raise DeliveryError(
                        f"send {self.rank}->{dest} tag={tag} seq={seq} "
                        f"undelivered after {attempt} attempt(s)"
                    )
                world.stats.retries += 1
                obs.instant("comm.retry", dest=dest, tag=tag,
                            attempt=attempt)
                obs.metrics.counter("comm.retries").inc()
                yield self.sim.timeout(rto + world.retry_backoff(attempt))

    def _dead_local_ranks(self) -> List[int]:
        """Failed world ranks translated into this communicator's
        numbering (empty when none of this communicator's peers died)."""
        if not self.world.failed:
            return []
        return [local for local in range(self.size)
                if self._to_world(local) in self.world.failed]

    def _raise_if_dead(self, peer: int, what: str) -> None:
        if (self.world.config.fault_aware
                and self._to_world(peer) in self.world.failed):
            raise RankFailure({peer}, f"{what} to failed rank {peer}")

    # -- point-to-point ----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0
             ) -> Generator[Event, Any, None]:
        """Buffered send: resumes after the local injection cost.

        In reliable mode, delivery (retransmits included) continues in
        the background; an exhausted retry budget is recorded in
        ``world.stats.delivery_failures`` rather than raised here (use
        :meth:`isend` + ``wait`` to observe per-message outcomes).
        """
        self._check_peer(dest, "dest")
        self._raise_if_dead(dest, "send")
        with self._op_span("send").set(dest=dest, tag=tag):
            process, nbytes = self._start_transfer(dest, tag, obj)
            if self.world.config.active:
                process.defused = True  # outcome tracked in world.stats
            params = self.world.fabric.technology.loggp
            local_cost = params.overhead + max(
                params.gap, nbytes * params.gap_per_byte
            )
            yield self.sim.timeout(local_cost)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; the request completes at delivery time.

        In reliable mode ``wait()`` raises :class:`DeliveryError` when
        the retry budget runs out and :class:`RankFailure` when the
        destination is known dead.
        """
        self._check_peer(dest, "dest")
        self._raise_if_dead(dest, "isend")
        process, _nbytes = self._start_transfer(dest, tag, obj)
        return Request(process)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: Optional[float] = None
             ) -> Generator[Event, Any, Any]:
        """Blocking receive; returns the payload object."""
        obj, _status = yield from self.recv_with_status(source, tag,
                                                        timeout)
        return obj

    def recv_with_status(self, source: int = ANY_SOURCE,
                         tag: int = ANY_TAG,
                         timeout: Optional[float] = None
                         ) -> Generator[Event, Any, Tuple[Any, Status]]:
        """Blocking receive; returns ``(payload, Status)``.

        Fault-aware mode turns hangs into errors: a receive naming a
        failed source raises :class:`RankFailure` (unless a matching
        message is already queued — it was sent before the death and is
        still deliverable); a wildcard receive raises when *any* peer
        has failed, because the dead rank could have been the match.
        ``timeout`` bounds the wait with :class:`CommTimeout`.
        """
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        cfg = self.world.config
        context = self._context

        def match(e: Envelope) -> bool:
            return e.context == context and e.matches(source, tag)

        mailbox = self.world.mailboxes[self._to_world(self.rank)]
        with self._op_span("recv").set(source=source, tag=tag):
            if not cfg.active and timeout is None:
                envelope: Envelope = yield mailbox.get(match)
                return self._accept(envelope)
            world = self.world
            deadline = (self.sim.now + timeout
                        if timeout is not None else None)
            while True:
                if cfg.fault_aware and world.failed:
                    queued = any(match(item) for item in mailbox._items)
                    if not queued:
                        if (source != ANY_SOURCE
                                and self._to_world(source) in world.failed):
                            raise RankFailure(
                                {source}, f"recv from failed rank {source}")
                        if source == ANY_SOURCE:
                            dead = self._dead_local_ranks()
                            if dead:
                                raise RankFailure(
                                    dead,
                                    "wildcard recv with failed peer(s)")
                get_event = mailbox.get(match)
                waiters = [get_event]
                notice = None
                if cfg.fault_aware:
                    notice = world.failure_notice()
                    waiters.append(notice)
                timer = None
                if deadline is not None:
                    remaining = deadline - self.sim.now
                    if remaining <= 0:
                        mailbox.cancel(get_event)
                        world.stats.op_timeouts += 1
                        raise CommTimeout(
                            f"recv(source={source}, tag={tag}) timed out")
                    timer = self.sim.timeout(remaining)
                    waiters.append(timer)
                if len(waiters) == 1:
                    envelope = yield get_event
                    return self._accept(envelope)
                wait = AnyOf(self.sim, waiters)
                if notice is not None:
                    # Every wait in the world shares the notice, which
                    # fires only at a failure.  Once this wait fires, even
                    # abandoned by an interrupt, it leaves the notice, so
                    # that the notice keeps neither it nor its envelope.
                    wait.add_callback(
                        lambda _, notice=notice, on_child=wait._on_child:
                        notice.remove_callback(on_child))
                yield wait
                if get_event.triggered:
                    return self._accept(get_event.value)
                mailbox.cancel(get_event)
                if timer is not None and timer.triggered:
                    world.stats.op_timeouts += 1
                    raise CommTimeout(
                        f"recv(source={source}, tag={tag}) timed out")
                # A rank failed somewhere; loop to re-evaluate and re-post.

    def _accept(self, envelope: Envelope) -> Tuple[Any, Status]:
        """Deliver a matched envelope: its payload and status."""
        status = Status(source=envelope.source, tag=envelope.tag,
                        nbytes=envelope.nbytes)
        return envelope.payload, status

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; ``wait()`` yields the payload."""
        process = self.sim.process(
            self.recv(source, tag), name=f"irecv@{self.rank}"
        )
        return Request(process)

    def sendrecv(self, obj: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG
                 ) -> Generator[Event, Any, Any]:
        """Combined exchange (deadlock-free by construction)."""
        request = self.isend(obj, dest, sendtag)
        received = yield from self.recv(source, recvtag)
        yield from request.wait()
        return received

    # -- collectives (delegating; algorithms in collectives.py) -----------

    def _next_tag(self) -> int:
        """Collective tag sequencing (see SPMD contract in class docstring).

        Every collective enters through here, so in fault-aware mode this
        single choke point makes *all* collectives raise
        :class:`RankFailure` when a member has died — the ULM/FT-MPI
        behaviour — instead of deadlocking on the dead rank's silence.
        """
        world = self.world
        if world.config.fault_aware and world.failed:
            dead = self._dead_local_ranks()
            if dead:
                raise RankFailure(
                    dead, "collective entered with failed peer(s)")
        self._collective_seq += 1
        return _collectives.COLLECTIVE_TAG_BASE + self._collective_seq

    def barrier(self) -> Generator[Event, Any, None]:
        """Block until every rank has entered the barrier (dissemination,
        :func:`repro.messaging.collectives.barrier`)."""
        with self._op_span("barrier"):
            result = yield from _collectives.barrier(self)
        return result

    def bcast(self, obj: Any, root: int = 0) -> Generator[Event, Any, Any]:
        """Broadcast ``obj`` from ``root`` to every rank (binomial tree,
        :func:`repro.messaging.collectives.bcast`)."""
        with self._op_span("bcast").set(root=root):
            result = yield from _collectives.bcast(self, obj, root)
        return result

    def allreduce(self, obj: Any, op: Callable = SUM,
                  algorithm: str = "recursive_doubling"
                  ) -> Generator[Event, Any, Any]:
        """Reduce with ``op`` and deliver the result to every rank (see
        :func:`repro.messaging.collectives.allreduce` for algorithms)."""
        with self._op_span("allreduce"):
            result = yield from _collectives.allreduce(self, obj, op,
                                                       algorithm)
        return result

    def gather(self, obj: Any, root: int = 0
               ) -> Generator[Event, Any, Optional[List[Any]]]:
        """Collect every rank's ``obj`` at ``root`` (list by rank)."""
        with self._op_span("gather").set(root=root):
            result = yield from _collectives.gather(self, obj, root)
        return result

    def allgather(self, obj: Any) -> Generator[Event, Any, List[Any]]:
        """Every rank receives the list of every rank's ``obj``."""
        with self._op_span("allgather"):
            result = yield from _collectives.allgather(self, obj)
        return result

    def alltoall(self, objs: List[Any]) -> Generator[Event, Any, List[Any]]:
        """Personalised exchange: rank d receives ``objs[d]`` from every
        rank, as a list indexed by source."""
        with self._op_span("alltoall"):
            result = yield from _collectives.alltoall(self, objs)
        return result

    # -- communicator construction (MPI_Comm_split) ------------------------

    def split(self, color: Any, key: int = 0
              ) -> Generator[Event, Any, Optional["SubCommunicator"]]:
        """Collective: partition this communicator by ``color``.

        Every rank calls ``split`` (SPMD contract); ranks sharing a color
        value form a new communicator, ordered by ``(key, old rank)``.
        Passing ``color=None`` opts a rank out (returns ``None``, like
        MPI_UNDEFINED).  Messages in the child cannot match messages in
        the parent or in siblings: each split gets a fresh context.
        """
        entries = yield from self.allgather((color, key, self.rank))
        self._split_seq += 1
        if color is None:
            return None
        members_local = [rank for c, k, rank in sorted(
            entries, key=lambda e: (e[1], e[2]))
            if c == color]
        members_world = [self._to_world(rank) for rank in members_local]
        my_index = members_local.index(self.rank)
        # Context derivation is pure SPMD arithmetic, so every member
        # computes the identical value with no extra communication.
        context = (self._context, self._split_seq, color)
        return SubCommunicator(self.world, members_world, my_index, context)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator rank={self.rank}/{self.size}>"


class SubCommunicator(Communicator):
    """A communicator over a subset of the world's ranks.

    Created by :meth:`Communicator.split`; local ranks are dense
    ``0..len(members)-1`` and translate to world ranks through the member
    table.  All point-to-point and collective machinery is inherited —
    only rank translation and the message context differ.
    """

    def __init__(self, world: CommWorld, members_world: List[int],
                 my_index: int, context: Any) -> None:
        if not members_world:
            raise ValueError("sub-communicator needs at least one member")
        if len(set(members_world)) != len(members_world):
            raise ValueError("duplicate members in sub-communicator")
        self.world = world
        self.members = list(members_world)
        self.rank = my_index
        self.size = len(members_world)
        self._collective_seq = 0
        self._split_seq = 0
        self._context = context

    def _to_world(self, rank: int) -> int:
        return self.members[rank]

    def _from_world(self, world_rank: int) -> int:
        return self.members.index(world_rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SubCommunicator rank={self.rank}/{self.size} "
                f"context={self._context!r}>")
