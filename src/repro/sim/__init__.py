"""Discrete-event simulation kernel.

A small, SimPy-flavoured engine: *processes* are Python generators that
``yield`` events; the :class:`~repro.sim.engine.Simulator` advances virtual
time from one event to the next.  All cluster behaviour in :mod:`repro`
(message transfers, job execution, failures) happens in virtual time, so
model latencies in the microsecond range are exact quantities rather than
wall-clock measurements distorted by interpreter overhead.

Public surface
--------------
:class:`Simulator`
    The event loop: ``now``, :meth:`~repro.sim.engine.Simulator.process`,
    :meth:`~repro.sim.engine.Simulator.timeout`,
    :meth:`~repro.sim.engine.Simulator.run`.
:class:`Event`, :class:`Timeout`, :class:`Process`
    Awaitable primitives.
:class:`Task`
    Fire-and-forget work run from event callbacks: a process's start
    event without the process.
:class:`AllOf`, :class:`AnyOf`
    Event combinators.
:class:`Resource`, :class:`Store`
    Queueing primitives (capacity-limited server, FIFO buffer).
:class:`RandomStreams`
    Named, independent, reproducible RNG streams.
:class:`DetSanRecorder`
    Determinism sanitizer: folds every scheduling decision into a
    rolling digest so two same-seed runs can be diffed event-by-event
    (:func:`~repro.sim.detsan.first_divergence`).
:class:`Interrupt`
    Exception injected into a process by ``Process.interrupt``.
:class:`FailureCause`, :class:`AbortCause`
    Structured interrupt causes (tuple-compatible) used by fault injection.
"""

from repro.sim.causes import AbortCause, FailureCause
from repro.sim.detsan import (
    DetSanRecorder,
    Divergence,
    EventRecord,
    first_divergence,
)
from repro.sim.equeue import CalendarEventQueue, HeapEventQueue
from repro.sim.event import AllOf, AnyOf, Event, EventStatus, Timeout
from repro.sim.engine import (
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Task,
)
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AbortCause",
    "AllOf",
    "AnyOf",
    "CalendarEventQueue",
    "DetSanRecorder",
    "Divergence",
    "Event",
    "EventRecord",
    "EventStatus",
    "FailureCause",
    "HeapEventQueue",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Task",
    "Timeout",
]
