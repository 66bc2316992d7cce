"""Queueing primitives built on events.

:class:`Resource`
    A server with integer capacity.  ``request()`` returns an event that
    succeeds when a slot is granted (FIFO); ``release()`` frees a slot.
    Used for shared links, switch ports, and CPU slots.  A resource
    nobody has waited on holds no wait queue, so a fabric's one-per-link
    resources cost memory by their count, not by their traffic.

:class:`Store`
    An unbounded-or-bounded FIFO buffer of items.  ``put(item)`` and
    ``get()`` return events.  Used as the mailbox underlying the messaging
    layer: a ``get`` posted before any ``put`` parks the caller; a ``put``
    into a waiting ``get`` hands the item over at the same instant.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, TYPE_CHECKING

from repro.sim.event import _SUCCEEDED, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """Capacity-limited server with FIFO grant order.

    The grant event's value is the resource itself, so a process can write
    ``yield resource.request()`` and then later ``resource.release()``.
    """

    __slots__ = ("sim", "capacity", "name", "_grant_name", "_in_use",
                 "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._grant_name = f"{self.name}.grant"
        self._in_use = 0
        self._waiters: Optional[Deque[Event]] = None

    @property
    def in_use(self) -> int:
        """Slots currently granted."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting for a slot."""
        return len(self._waiters) if self._waiters is not None else 0

    def request(self) -> Event:
        """An event that succeeds when a slot is granted to the caller."""
        grant = Event(self.sim, self._grant_name)
        if self._in_use < self.capacity:
            # A free slot: schedule the fresh grant directly rather than
            # through succeed(), which would re-check its pending status.
            self._in_use += 1
            grant._status = _SUCCEEDED
            grant._value = self
            self.sim._schedule_event(grant)
        elif self._waiters is None:
            self._waiters = deque((grant,))
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Free one slot, handing it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"{self.name}: release without matching request")
        if self._waiters:
            # Slot moves directly to the next waiter; occupancy unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1

    def __repr__(self) -> str:
        return (f"<Resource {self.name} {self._in_use}/{self.capacity}"
                f" q={self.queue_length}>")


class Store:
    """FIFO item buffer with optional capacity bound.

    ``get()`` events succeed with the item.  ``put(item)`` events succeed
    with ``None`` once the item is accepted (immediately unless the store
    is full).  Matching is strictly FIFO on both sides.

    An optional ``filter`` on :meth:`get` lets a consumer take only items
    it accepts (used for tag/source matching in the messaging layer);
    non-matching items stay queued for other consumers, preserving their
    arrival order.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None,
                 name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        self._items: Deque[Any] = deque()
        self._getters: Deque[tuple] = deque()   # (event, filter)
        self._putters: Deque[tuple] = deque()   # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        """Consumers currently blocked on get()."""
        return len(self._getters)

    @property
    def waiting_putters(self) -> int:
        """Producers currently blocked on put()."""
        return len(self._putters)

    def put(self, item: Any) -> Event:
        """Offer an item; succeeds when accepted into the buffer."""
        done = Event(self.sim, f"{self.name}.put")
        self._putters.append((done, item))
        self._match()
        return done

    def get(self, accept: Optional[Callable[[Any], bool]] = None) -> Event:
        """Take the oldest item (matching ``accept`` if given)."""
        got = Event(self.sim, f"{self.name}.get")
        self._getters.append((got, accept))
        self._match()
        return got

    # -- matching engine --------------------------------------------------

    def _match(self) -> None:
        """Drain putters into the buffer and the buffer into getters until
        no further progress is possible."""
        progress = True
        while progress:
            progress = False
            # Accept pending puts while there is room.
            while self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                done, item = self._putters.popleft()
                self._items.append(item)
                done.succeed(None)
                progress = True
            # Serve getters from the buffer.
            if self._getters and self._items:
                served = self._serve_getters()
                progress = progress or served

    def _serve_getters(self) -> bool:
        served_any = False
        remaining: Deque[tuple] = deque()
        while self._getters:
            got, accept = self._getters.popleft()
            index = self._find(accept)
            if index is None:
                remaining.append((got, accept))
                continue
            item = self._items[index]
            del self._items[index]
            got.succeed(item)
            served_any = True
        self._getters = remaining
        return served_any

    def cancel(self, got: Event) -> bool:
        """Withdraw a pending ``get`` event before it is served.

        Returns True if the event was still queued (and is now removed);
        False if it was already served or never belonged here.  A consumer
        that abandons a ``get`` (timeout, failure notice) must cancel it,
        or the stale getter would silently steal a future item.
        """
        for entry in self._getters:
            if entry[0] is got:
                self._getters.remove(entry)
                return True
        return False

    def purge(self, accept: Callable[[Any], bool]) -> int:
        """Drop every buffered item matching ``accept``; returns the count.

        Used to sweep stale protocol traffic (e.g. duplicate delivery
        acknowledgments) out of a mailbox without disturbing waiters.
        """
        kept: Deque[Any] = deque()
        dropped = 0
        for item in self._items:
            if accept(item):
                dropped += 1
            else:
                kept.append(item)
        self._items = kept
        return dropped

    def _find(self, accept: Optional[Callable[[Any], bool]]) -> Optional[int]:
        if accept is None:
            return 0 if self._items else None
        for index, item in enumerate(self._items):
            if accept(item):
                return index
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Store {self.name} items={len(self._items)} "
                f"getters={len(self._getters)} putters={len(self._putters)}>")
