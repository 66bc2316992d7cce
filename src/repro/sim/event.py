"""Events: the things simulation processes wait on.

An :class:`Event` starts *pending*, is *triggered* exactly once (either
succeeding with a value or failing with an exception), and then notifies
every registered callback.  Processes register themselves as callbacks when
they ``yield`` an event; the engine resumes them when it fires.

Events deliberately mirror the SimPy contract (``succeed`` / ``fail`` /
``triggered`` / ``value``) so that readers familiar with that library can
navigate the codebase, but the implementation here is independent and much
smaller.

The ``_callbacks`` slot doubles as the delivery state machine, encoded so
the engine's hot loop can classify an event with one identity check:

``None``
    Not yet delivered, no waiters registered.  The common case for
    fire-and-forget timeouts — no list is ever allocated for them.
``list``
    Not yet delivered, one or more waiters registered.
:data:`_DELIVERED`
    Callbacks have run.  Late ``add_callback`` registrations are routed
    through the event queue (see :class:`_Soon`).

The sentinel is falsy and iterates as empty, so code that treats
``_callbacks`` as "maybe a populated list" — notably the DetSan
recorder's pre-delivery fold — needs no special cases.
"""

from __future__ import annotations

import enum
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.engine import Simulator

__all__ = ["Event", "EventStatus", "Timeout", "AllOf", "AnyOf"]


class EventStatus(enum.Enum):
    """Lifecycle of an event."""

    PENDING = "pending"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


class _CallbacksSentinel:
    """Terminal ``_callbacks`` state: the event was delivered.

    Falsy and empty-iterable by design: observers that ask "are there
    pending callbacks?" or "which callbacks are pending?" get the right
    answer without knowing the sentinel exists.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __iter__(self) -> Iterator[Callable[["Event"], None]]:
        return iter(())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<callbacks:delivered>"


#: Callbacks already ran; the event is in the past.
_DELIVERED = _CallbacksSentinel()

_Callbacks = Union[None, List[Callable[["Event"], None]], _CallbacksSentinel]

#: Status members bound to module names: the engine's hot paths compare
#: ``_status`` by identity against these instead of going through the
#: ``triggered`` and ``ok`` properties.
_PENDING = EventStatus.PENDING
_SUCCEEDED = EventStatus.SUCCEEDED
_FAILED = EventStatus.FAILED

#: Recycled :class:`Timeout` instances, shared across simulators.  Only the
#: engine's plain-mode fast loop recycles (and only objects it can prove
#: unreferenced, via ``sys.getrefcount``); :meth:`Simulator.timeout` reuses
#: them instead of allocating.  Invariant: every pooled object has
#: ``_callbacks is None``, ``sim is None``, ``_value is None`` and
#: ``defused False``.
_TIMEOUT_POOL: List["Timeout"] = []
#: Pool cap — bounds worst-case retained memory after a burst (~256k
#: objects) while comfortably covering steady-state campaign churn.
_POOL_MAX = 262_144

#: Interned ``timeout(<delay:g>)`` labels.  Heartbeat/collective workloads
#: reuse a handful of delays millions of times; formatting the label
#: dominates Timeout construction without this cache.
_TIMEOUT_NAMES: Dict[float, str] = {}
_TIMEOUT_NAMES_MAX = 4096


def _timeout_name(delay: float) -> str:
    """The interned ``timeout(...)`` label for ``delay``."""
    name = _TIMEOUT_NAMES.get(delay)
    if name is None:
        name = f"timeout({delay:g})"
        if len(_TIMEOUT_NAMES) < _TIMEOUT_NAMES_MAX:
            _TIMEOUT_NAMES[delay] = name
    return name


class Event:
    """A one-shot occurrence in virtual time.

    Parameters
    ----------
    sim:
        The owning simulator.  Triggering schedules callback delivery as an
        immediate (zero-delay) occurrence on its event queue, which keeps
        callback ordering deterministic.
    name:
        Optional label used in traces and ``repr``.
    """

    __slots__ = ("sim", "name", "_status", "_value", "_callbacks", "defused",
                 "_scheduled_at", "_seq")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._status = _PENDING
        self._value: Any = None
        self._callbacks: _Callbacks = None
        #: A failed event whose exception was never observed by any process
        #: is re-raised by the engine unless ``defused`` is set.  Mirrors
        #: SimPy semantics and catches silently-dropped failures in tests.
        self.defused = False
        #: Virtual time at which delivery was scheduled (set by the engine;
        #: ``None`` until then).  Lets an interrupt landing at the exact
        #: instant a waiter's wakeup is due yield to that wakeup.
        self._scheduled_at: Optional[float] = None
        #: Global scheduling sequence number (set by the engine when the
        #: event is queued).  Part of the ``(when, priority, seq)``
        #: tie-break contract; the calendar queue reads it back on pop.
        self._seq = 0

    # -- inspection ------------------------------------------------------

    @property
    def status(self) -> EventStatus:
        """Current lifecycle state."""
        return self._status

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._status is not _PENDING

    @property
    def ok(self) -> bool:
        """True iff the event succeeded."""
        return self._status is _SUCCEEDED

    @property
    def value(self) -> Any:
        """The success value or failure exception; raises while pending."""
        if self._status is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._status is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._status = _SUCCEEDED
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._status is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._status = _FAILED
        self._value = exception
        self.sim._schedule_event(self)
        return self

    def _deliver(self) -> None:
        """Run callbacks; invoked by the engine when this event is popped."""
        callbacks = self._callbacks
        self._callbacks = _DELIVERED
        if callbacks is not None:
            for callback in callbacks:
                callback(self)

    # -- waiting ---------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``.

        If the event has already been delivered, the callback is scheduled
        as an immediate occurrence on the event queue (late waiters must not
        block forever) — via the queue rather than synchronously, so chains
        of already-triggered yields cannot blow the Python stack.
        """
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = [callback]
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            _Soon(self.sim, self, callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Withdraw a registered ``callback`` before delivery; a no-op
        once the event has been delivered."""
        callbacks = self._callbacks
        if type(callbacks) is list:
            callbacks.remove(callback)

    # -- combinator sugar --------------------------------------------------

    def __and__(self, other: "Event") -> "Event":
        """``a & b`` waits for both (an :class:`AllOf` of the two)."""
        if not isinstance(other, Event):
            return NotImplemented
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "Event":
        """``a | b`` waits for whichever fires first (an :class:`AnyOf`)."""
        if not isinstance(other, Event):
            return NotImplemented
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or hex(id(self))
        return f"<{type(self).__name__} {label} {self._status.value}>"


class _Soon(Event):
    """Internal: deliver one late-registered callback via the event queue."""

    __slots__ = ("_target", "_late_callback")

    def __init__(self, sim: "Simulator", target: Event,
                 callback: Callable[[Event], None]) -> None:
        super().__init__(sim, "soon")
        self._target = target
        self._late_callback = callback
        self._status = target._status
        self._value = target._value
        self.defused = True  # the original event's failure was already handled
        # Delivery happens through the generic callback walk (no custom
        # _deliver override — the engine's fast loop must be able to treat
        # every event uniformly).
        self._callbacks = [self._run]
        sim._schedule_event(self)

    def _run(self, _event: Event) -> None:
        """Forward the original event to the late-registered callback."""
        self._late_callback(self._target)


class Timeout(Event):
    """An event that succeeds after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name or _timeout_name(delay))
        self.delay = delay
        # Bypass succeed(): schedule the trigger directly at now+delay.
        self._status = _SUCCEEDED
        self._value = value
        sim._schedule_event(self, delay)


class _Condition(Event):
    """Base for AllOf / AnyOf combinators."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Sequence[Event],
                 name: str) -> None:
        super().__init__(sim, name)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("cannot combine events from different simulators")
        self._pending_count = len(self.events)
        if not self.events:
            self.succeed(self._result())
        else:
            for event in self.events:
                event.add_callback(self._on_child)

    def _result(self) -> List[Any]:
        return [e._value for e in self.events if e.triggered]

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when *every* child event has succeeded.

    Fails as soon as any child fails (remaining children are left to run;
    their failures are defused so the engine does not crash).
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        super().__init__(sim, events, f"allof[{len(events)}]")

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            event.defused = True
            return
        if not event.ok:
            event.defused = True
            self.fail(event._value)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed([e._value for e in self.events])


class AnyOf(_Condition):
    """Succeeds (or fails) with the first child event that triggers.

    The value delivered is ``(index, value)`` of the winning child so a
    waiter can tell which event fired.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        if not events:
            raise ValueError("AnyOf requires at least one event")
        super().__init__(sim, events, f"anyof[{len(events)}]")

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                event.defused = True
            return
        index = self.events.index(event)
        if event.ok:
            self.succeed((index, event._value))
        else:
            event.defused = True
            self.fail(event._value)
