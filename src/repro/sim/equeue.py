"""Event-queue implementations behind :class:`~repro.sim.engine.Simulator`.

Two interchangeable structures with one contract — entries pushed as
``(when, priority, seq, event)`` pop in exactly ``(when, priority, seq)``
order:

:class:`HeapEventQueue`
    The original binary heap of tuples.  O(log n) everywhere, no
    assumptions about the time distribution.  Kept verbatim as the
    reference implementation: the differential tests in
    ``tests/test_engine_queue_equivalence.py`` drive it against the
    calendar queue and assert identical pop sequences, and the perf
    bench uses it as the recorded baseline for the ``speedup_vs_heap``
    gate.

:class:`CalendarEventQueue`
    A calendar queue specialised to discrete-event workloads: events due
    at the *same instant* are kept in one list ("slot") keyed by their
    exact time, and a small heap orders only the **distinct** times.
    Simulation workloads are massively tie-heavy (every rank of a
    bulk-synchronous phase wakes at the same instant; every zero-delay
    trigger lands *now*), so the heap the engine actually pays log-time
    on is orders of magnitude smaller than the event count, slot
    insertion is an O(1) dict-append, and in-slot order is plain append
    order — which *is* sequence order, because the engine pushes with a
    monotonically increasing ``seq``.  Far-future events need no special
    fallback path: a far-future time is just one more entry in the
    distinct-time heap, and "bucket resizing" is automatic because
    buckets are exact times (the structure adapts to any event-time
    distribution without rehashing).  Urgent (priority-0) events are
    rare — only process interrupts use them — and ride a side table so
    the common path never inspects priorities.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.event import Event

__all__ = ["CalendarEventQueue", "HeapEventQueue"]

_INF = float("inf")

#: A pop()ed entry: (when, priority, seq, event).
Entry = Tuple[float, int, int, Any]


class HeapEventQueue:
    """The classic tuple heap keyed by ``(when, priority, seq)``."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Entry] = []

    def push(self, when: float, priority: int, seq: int,
             event: "Event") -> None:
        """Insert one entry."""
        heappush(self._heap, (when, priority, seq, event))

    def pop(self) -> Optional[Entry]:
        """Remove and return the next entry, or ``None`` when empty."""
        heap = self._heap
        if not heap:
            return None
        return heappop(heap)

    def peek_time(self) -> float:
        """Time of the next entry; ``inf`` when empty."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    def __len__(self) -> int:
        return len(self._heap)


class CalendarEventQueue:
    """Exact-time slots + a heap of distinct times (see module docstring).

    Invariants:

    * A time ``t`` appears in ``_times`` exactly once iff ``t`` has a
      pending slot in ``_slots`` or ``_urgent`` (the currently active
      time is *not* in ``_times``; its remaining events live in
      ``_active``/``_preempt``).
    * Events due at the active time are appended to ``_active`` (normal)
      or ``_preempt`` (urgent) directly, so in-slot append order is
      global sequence order and a zero-delay event scheduled mid-batch
      is delivered within the same batch.
    * ``_preempt`` drains before the remainder of ``_active``: an urgent
      event due at ``t`` beats every normal event due at ``t`` that has
      not yet been delivered — exactly the tuple-heap ordering.

    The engine's plain-mode run loop manipulates these fields directly
    (they are the documented contract between the two modules); the
    method API below is the same behaviour one call at a time, used by
    the instrumented engine path and the differential tests.
    """

    __slots__ = ("_slots", "_times", "_urgent", "_active", "_active_index",
                 "_active_time", "_preempt", "_count")

    def __init__(self) -> None:
        #: Normal-priority events keyed by exact due time.
        self._slots: Dict[float, List["Event"]] = {}
        #: Heap of distinct pending times.
        self._times: List[float] = []
        #: Urgent (priority-0) events keyed by exact due time.
        self._urgent: Dict[float, List["Event"]] = {}
        #: The slot currently being drained, and the cursor into it.
        self._active: List["Event"] = []
        self._active_index = 0
        #: Time of the active slot (None before the first advance).
        self._active_time: Optional[float] = None
        #: Urgent events due at the active time, drained before _active.
        self._preempt: Deque["Event"] = deque()
        self._count = 0

    def push(self, when: float, priority: int, seq: int,
             event: "Event") -> None:
        """Insert one entry; ``seq`` is recorded on the event itself."""
        event._seq = seq
        self._count += 1
        if priority != 0:
            if when == self._active_time:
                # The active time is never in ``_times``, so it has no
                # pending slot: no need to probe the slot dict first.
                self._active.append(event)
                return
            slots = self._slots
            slot = slots.get(when)
            if slot is not None:
                slot.append(event)
            else:
                slots[when] = [event]
                # The "time already pending" invariant is checked once:
                # ``when`` enters ``_times`` only if no urgent slot put
                # it there already (a normal event landing on an
                # urgent-only time must not duplicate the heap entry).
                if when not in self._urgent:
                    heappush(self._times, when)
        else:
            self._push_urgent_uncounted(when, event)

    def _push_urgent_uncounted(self, when: float, event: "Event") -> None:
        """Insert a priority-0 entry WITHOUT maintaining ``len(self)``.

        The underscore is the contract: ``_count`` is the caller's job.
        :meth:`push` pre-counts before delegating here, and the engine's
        inlined scheduling path (``Simulator._schedule_event``) counts at
        its top so normal and urgent bands share one increment.  Calling
        this directly from anywhere else silently corrupts ``len(self)``
        — use :meth:`push` with ``priority=0`` instead.
        """
        if when == self._active_time:
            self._preempt.append(event)
            return
        pre = self._urgent.get(when)
        if pre is not None:
            pre.append(event)
            return
        self._urgent[when] = [event]
        if when not in self._slots:
            heappush(self._times, when)

    def pop(self) -> Optional[Entry]:
        """Remove and return the next entry, or ``None`` when empty."""
        while True:
            preempt = self._preempt
            if preempt:
                event = preempt.popleft()
                self._count -= 1
                # _active_time is never None once anything was queued at
                # the current instant.
                return (self._active_time, 0, event._seq, event)  # type: ignore[return-value]
            batch = self._active
            i = self._active_index
            if i < len(batch):
                self._active_index = i + 1
                event = batch[i]
                self._count -= 1
                return (self._active_time, 1, event._seq, event)  # type: ignore[return-value]
            if not self._times:
                return None
            self._advance()

    def _advance(self) -> float:
        """Make the next pending time the active one and return it.

        Its urgent entries move to ``_preempt`` and its slot becomes
        ``_active``.  Only valid when the active slot and ``_preempt``
        are drained and a time is pending.
        """
        t = heappop(self._times)
        self._active_time = t
        if self._urgent:
            pre = self._urgent.pop(t, None)
            if pre is not None:
                self._preempt.extend(pre)
        batch = self._slots.pop(t, None)
        self._active = batch if batch is not None else []
        self._active_index = 0
        return t

    def peek_time(self) -> float:
        """Time of the next entry; ``inf`` when empty."""
        if self._preempt or self._active_index < len(self._active):
            return self._active_time  # type: ignore[return-value]
        times = self._times
        return times[0] if times else _INF

    def __len__(self) -> int:
        return self._count
