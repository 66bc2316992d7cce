"""The event loop and process machinery.

:class:`Simulator` owns an event queue keyed by ``(time, priority,
sequence)``.  The ``sequence`` tiebreaker makes execution fully
deterministic: two events scheduled for the same instant are delivered
in scheduling order, so repeated runs with the same seeds produce
identical traces — a property the test suite checks.

Two queue implementations honour that contract (see
:mod:`repro.sim.equeue`): the default **calendar queue** batches events
by exact due time so tie-heavy simulation workloads pay log-time only
per *distinct* time, and the legacy **binary heap**
(``Simulator(queue="heap")``) is kept as the differential-testing
oracle and perf baseline.  The tie-break contract — pop order is
exactly ``(when, priority, seq)`` — is what the equivalence suite in
``tests/test_engine_queue_equivalence.py`` pins down across both.

When nothing is watching (no observability, no DetSan) and the queue
is the calendar queue, the run loop drops into a *plain-mode* fast path
that walks the queue's batches inline and recycles fire-and-forget
:class:`Timeout` objects through a free pool — same deliveries in the
same order, with the per-event bookkeeping compiled down to a few
dict/list operations.  Plain mode is fixed when the simulator is built.
A :class:`~repro.sim.detsan.DetSanRecorder` is the one recorder that
sees every delivery.

Processes are plain generators.  Each ``yield`` hands the engine an
:class:`~repro.sim.event.Event`; the engine resumes the generator with the
event's value (or throws the event's exception into it) when it fires.
A resume is one Python frame, ``Process._resume``, which also registers
the process on the event it yields next::

    def worker(sim):
        yield sim.timeout(1.5)          # sleep in virtual time
        done = sim.event()
        ...
        value = yield done              # wait for someone to succeed(done)

    sim = Simulator()
    sim.process(worker(sim))
    sim.run()

Work that nothing waits on can be a :class:`Task` instead: the same
start event, then plain callbacks, with no generator and no end event.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
)

from repro.obs import DEFAULT_TRACK, NULL_OBS, Observability
from repro.sim.equeue import CalendarEventQueue, Entry, HeapEventQueue
from repro.sim.event import (
    _DELIVERED,
    _FAILED,
    _PENDING,
    _POOL_MAX,
    _SUCCEEDED,
    _TIMEOUT_NAMES,
    _TIMEOUT_POOL,
    Event,
    Timeout,
    _timeout_name,
)

if TYPE_CHECKING:  # pragma: no cover - type-only; no runtime dependency
    from repro.sim.detsan import DetSanRecorder

__all__ = ["Simulator", "Process", "Task", "Interrupt", "SimulationError",
           "DEFAULT_QUEUE"]

#: Priority band for ordinary events.  Interrupts use URGENT so that a
#: process interrupted at time *t* sees the interrupt before any regular
#: event also due at *t*.
URGENT = 0
NORMAL = 1

#: Queue implementation used when ``Simulator(queue=...)`` is not given:
#: ``"wheel"`` (calendar queue) or ``"heap"`` (legacy binary heap).
#: Module-level so test harnesses can force a whole stack of components
#: onto one implementation without threading a parameter everywhere.
DEFAULT_QUEUE = "wheel"

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for engine-level protocol violations (e.g. unhandled failure)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries arbitrary context (for fault injection it is the
    failure record).
    """

    @property
    def cause(self) -> Any:
        """The payload the interrupter supplied (None if none)."""
        return self.args[0] if self.args else None


class Process(Event):
    """A running generator, awaitable like any other event.

    The process event succeeds with the generator's return value when it
    finishes, or fails with the exception that escaped it.  Waiting on a
    process therefore composes: a parent can ``yield child_process``.
    """

    __slots__ = ("generator", "_waiting_on", "_abandoned",
                 "_obs_track", "_obs_span")

    def __init__(self, sim: "Simulator",
                 generator: Generator[Event, Any, Any],
                 name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        self._abandoned: List[Event] = []
        if sim._obs_enabled:
            # Each process gets its own span track: background helper
            # processes (eager transfers, retry timers) would otherwise
            # produce improperly-overlapping spans on a shared track.
            self._obs_track = sim.obs.unique_track(self.name)
            self._obs_span = sim.obs.span(
                f"process:{self.name}", track=self._obs_track)
        else:
            self._obs_track = DEFAULT_TRACK
            self._obs_span = None
        # The simulator keeps a strong reference until the generator
        # finishes: abandoned processes (torn down mid-wait) must never
        # be reaped by the cyclic collector mid-run, because GeneratorExit
        # would close their open spans at a GC-dependent instant.
        sim._live_processes[self] = None
        sim._schedule_start(self._resume, self.name)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process is an error; interrupting a process
        twice before it runs again delivers both interrupts in order.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished {self!r}")
        interrupt_event = Event(self.sim, f"interrupt:{self.name}")
        interrupt_event.defused = True
        interrupt_event._callbacks = [self._resume_with_interrupt]
        interrupt_event._status = _FAILED
        interrupt_event._value = Interrupt(cause)
        self.sim._schedule_event(interrupt_event, 0.0, priority=URGENT)

    # -- engine plumbing -------------------------------------------------

    def _resume_with_interrupt(self, event: Event) -> None:
        if self._status is not _PENDING:
            # The process finished between the interrupt being scheduled and
            # delivered; interrupting a corpse is a silent no-op at this
            # point (the caller's interrupt() already raced legitimately).
            return
        waiting = self._waiting_on
        if (waiting is not None and waiting._status is not _PENDING
                and waiting._scheduled_at is not None
                and waiting._scheduled_at <= self.sim.now):
            # The wakeup this process is waiting for is due at this very
            # instant: the process "finished first" in virtual time.  The
            # interrupt loses the tie — no-op, and let the queued wakeup
            # resume the process normally.
            return
        # Detach from whatever we were waiting on: when that event later
        # fires, _resume must ignore it (we already moved on).
        if waiting is not None:
            self._abandoned.append(waiting)
            self._waiting_on = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        # One Python frame per resume: the stale-wakeup checks, the
        # generator step and the next wait's registration all run here,
        # and statuses are compared by identity, not through properties.
        if self._abandoned and event in self._abandoned:
            # Stale wakeup from an event we abandoned after an interrupt.
            self._abandoned.remove(event)
            if event._status is not _SUCCEEDED:
                event.defused = True
            return
        if self._status is not _PENDING:
            if event._status is not _SUCCEEDED:
                event.defused = True
            return
        self._waiting_on = None
        sim = self.sim
        sim._active_process = self
        if sim._obs_enabled:
            sim.obs.set_track(self._obs_track)
        try:
            if event._status is _SUCCEEDED:
                target = self.generator.send(event._value)
            else:
                event.defused = True
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            sim._live_processes.pop(self, None)
            if self._obs_span is not None:
                self._obs_span.close()
            self.succeed(stop.value)
            return
        except BaseException as exc:  # repro: noqa[REP010] - event boundary
            sim._active_process = None
            sim._live_processes.pop(self, None)
            if self._obs_span is not None:
                self._obs_span.close("error")
            self.fail(exc)
            return
        sim._active_process = None
        if not isinstance(target, Event):
            message = (
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (use sim.timeout/sim.event)"
            )
            self.generator.close()
            sim._live_processes.pop(self, None)
            if self._obs_span is not None:
                self._obs_span.close("error")
            self.fail(SimulationError(message))
            return
        if target.sim is not sim:
            self.generator.close()
            sim._live_processes.pop(self, None)
            if self._obs_span is not None:
                self._obs_span.close("error")
            self.fail(SimulationError("yielded event belongs to another simulator"))
            return
        self._waiting_on = target
        # Inlined add_callback: this registration runs once per resume,
        # and the generic method costs a call and four branches.
        callbacks = target._callbacks
        if callbacks is None:
            target._callbacks = [self._resume]
        elif type(callbacks) is list:
            callbacks.append(self._resume)
        else:
            target.add_callback(self._resume)


class Task:
    """Fire-and-forget work run from event callbacks, not a generator.

    A task starts where a process spawned at the same moment would: its
    start event, named ``init:<name>``, calls :meth:`run` at the current
    instant.  From there it advances only through the callbacks it
    registers.  It has no generator, no span of its own and no end
    event, so nothing can wait on it.  With observability on it gets a
    unique track, as a process does; a subclass's own callbacks call
    :meth:`enter` first so that what they record lands there.  DetSan
    names a task's events after its ``name``.
    """

    __slots__ = ("sim", "name", "track")

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.track = (sim.obs.unique_track(name) if sim._obs_enabled
                      else DEFAULT_TRACK)
        sim._schedule_start(self._start, name)

    def _start(self, _event: Event) -> None:
        self.enter()
        self.run()

    def enter(self) -> None:
        """Make this task's track the current one."""
        if self.sim._obs_enabled:
            self.sim.obs.set_track(self.track)

    def run(self) -> None:
        """The task's first step, run by its start event."""
        raise NotImplementedError


class Simulator:
    """Deterministic discrete-event loop.

    Parameters
    ----------
    obs:
        Optional :class:`~repro.obs.Observability`; defaults to the
        shared null instance.  When given, the simulator binds its clock
        to ``sim.now`` and attributes spans to the running process.
    detsan:
        Optional :class:`~repro.sim.detsan.DetSanRecorder`.  When given,
        every delivered event folds its scheduling decision into the
        recorder's rolling digest and record log (the determinism
        sanitizer, and the engine's per-event stream).  When
        ``None`` — the default — the only cost is one ``is not None``
        check per event on the instrumented path, and nothing at all on
        the plain-mode fast path.
    queue:
        ``"wheel"`` (calendar queue, the default via
        :data:`DEFAULT_QUEUE`) or ``"heap"`` (the legacy binary heap).
        Both deliver identical event orders; the heap exists as the
        differential-testing oracle and the perf baseline.
    """

    def __init__(self, obs: Optional[Observability] = None,
                 detsan: Optional["DetSanRecorder"] = None,
                 queue: Optional[str] = None) -> None:
        kind = queue if queue is not None else DEFAULT_QUEUE
        if kind == "wheel":
            self._queue: Any = CalendarEventQueue()
        elif kind == "heap":
            self._queue = HeapEventQueue()
        else:
            raise ValueError(f"unknown queue implementation: {kind!r}")
        self._queue_kind = kind
        self._wheel = kind == "wheel"
        self._now = 0.0
        self._sequence = 0
        self._active_process: Optional[Process] = None
        # Insertion-ordered strong references to unfinished processes.
        # Without this, a process abandoned mid-wait (its incarnation was
        # torn down) is reclaimed by the cyclic collector at an
        # allocation-dependent instant, and GeneratorExit closes its open
        # spans with GC-dependent timing — breaking trace byte-identity.
        self._live_processes: Dict[Process, None] = {}
        self.obs: Observability = obs if obs is not None else NULL_OBS
        # Cached flag: hot paths branch on a plain attribute, never a
        # method call, so the disabled path stays within its overhead
        # budget.
        self._obs_enabled: bool = self.obs.enabled
        if self._obs_enabled:
            self.obs.bind_clock(lambda: self._now)
        self._detsan = detsan
        self._event_count = 0
        # Plain mode: nothing observes individual deliveries, so run()
        # may use the inlined fast loop and recycle timeout objects.
        self._plain = self._wheel and detsan is None and not self._obs_enabled

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any (for diagnostics)."""
        return self._active_process

    @property
    def events_executed(self) -> int:
        """Total events delivered so far (a cheap progress metric)."""
        return self._event_count

    @property
    def queue_kind(self) -> str:
        """Which queue implementation this simulator runs on."""
        return self._queue_kind

    # -- factories -------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event owned by this simulator."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds ``delay`` seconds from now.

        In plain mode this reuses recycled :class:`Timeout` objects from
        the free pool and inlines the calendar-queue insert — timeout
        creation is the single hottest allocation site in every
        campaign.
        """
        if not self._plain:
            return Timeout(self, delay, value)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        pool = _TIMEOUT_POOL
        if pool:
            # Pooled objects keep their SUCCEEDED status and None
            # callbacks; only the identity fields need refreshing.
            event = pool.pop()
        else:
            event = Timeout.__new__(Timeout)
            event._callbacks = None
            event._status = _SUCCEEDED
        event.defused = False
        event.sim = self
        name = _TIMEOUT_NAMES.get(delay)
        event.name = name if name is not None else _timeout_name(delay)
        event.delay = delay
        event._value = value
        # Inlined _schedule_event for the wheel's NORMAL band.
        seq = self._sequence + 1
        self._sequence = seq
        when = self._now + delay
        event._scheduled_at = when
        event._seq = seq
        wheel = self._queue
        wheel._count += 1
        slot = wheel._slots.get(when)
        if slot is not None:
            slot.append(event)
        elif when == wheel._active_time:
            wheel._active.append(event)
        else:
            wheel._slots[when] = [event]
            if when not in wheel._urgent:
                heappush(wheel._times, when)
        return event

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        """Register a generator as a process starting at the current time."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds when every given event has succeeded."""
        from repro.sim.event import AllOf

        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that fires with the first of the given events."""
        from repro.sim.event import AnyOf

        return AnyOf(self, list(events))

    # -- scheduling ------------------------------------------------------

    def _schedule_start(self, callback: Callable[[Event], None],
                        name: str) -> None:
        """Queue ``callback`` at the current instant in a start event
        named ``init:<name>``: how a process or a task takes its first
        step.  A fresh event needs no trigger checks, so it is
        scheduled directly."""
        start = Event(self, f"init:{name}")
        start._callbacks = [callback]
        start._status = _SUCCEEDED
        self._schedule_event(start)

    def _schedule_event(self, event: Event, delay: float = 0.0,
                        priority: int = NORMAL) -> None:
        seq = self._sequence + 1
        self._sequence = seq
        when = self._now + delay
        event._scheduled_at = when
        event._seq = seq
        queue = self._queue
        if self._wheel:
            # Inlined CalendarEventQueue.push (this is the engine's
            # hottest call site after timeout()).  Most pushes here are
            # same-instant grants, bootstraps and completions, so the
            # active time is tested before the slot dict is probed: the
            # queue keeps the active time out of _times, so it never has
            # a pending slot of its own.
            queue._count += 1
            if priority != URGENT:
                if when == queue._active_time:
                    queue._active.append(event)
                else:
                    slots = queue._slots
                    slot = slots.get(when)
                    if slot is not None:
                        slot.append(event)
                    else:
                        slots[when] = [event]
                        if when not in queue._urgent:
                            heappush(queue._times, when)
            else:
                queue._push_urgent_uncounted(when, event)
        else:
            queue.push(when, priority, seq, event)

    # -- running ---------------------------------------------------------

    def _dispatch(self, entry: Entry) -> None:
        """Deliver one popped entry on the instrumented path."""
        when, priority, seq, event = entry
        self._now = when
        self._event_count += 1
        if self._detsan is not None:
            # Fold the scheduling decision *before* delivery so the
            # sanitizer stream captures decision order, not effects.
            self._detsan.fold(when, priority, seq, event)
        event._deliver()
        if self._obs_enabled:
            # Delivery may have resumed a process (switching the span
            # track); anything recorded between events belongs to the
            # supervisor, i.e. the default track.
            self.obs.set_track(DEFAULT_TRACK)
        if event._status is _FAILED and not event.defused:
            # A failure nobody waited on: surface it rather than lose it.
            raise SimulationError(
                f"unhandled failure in {event!r}"
            ) from event._value

    def step(self) -> None:
        """Deliver the single next event, advancing virtual time to it.

        Raises :class:`IndexError` if the queue is empty.
        """
        entry = self._queue.pop()
        if entry is None:
            raise IndexError("step from an empty event queue")
        self._dispatch(entry)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue.peek_time()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            stop: Optional[Callable[[], bool]] = None) -> float:
        """Run until the queue empties, ``until`` is reached, ``stop``
        returns true, or ``max_events`` more events have been delivered.

        Returns the final virtual time.  When stopping on ``until``, the
        clock is advanced exactly to ``until`` (events due later stay
        queued), matching the convention measurement code expects.

        Before each entry that surfaces from the queue, the loop asks in
        this order: does ``stop()`` hold, is the entry due after
        ``until``, have ``max_events`` events been delivered by this
        call?  So ``stop`` is never evaluated mid-delivery or on an
        empty queue; it sees the clock and :attr:`events_executed` as
        the previous entry left them, and stopping leaves them there.
        Supervisors that watch conditions maintained by perpetual
        processes (heartbeat monitors keep the queue non-empty forever)
        use it to regain control the moment the condition holds.

        A plain-mode simulator runs every form of the call on the fast
        loop, :meth:`_run_fast`; the others run the instrumented loop
        below.  Both stop at the same entry with the same clock.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        if self._plain:
            return self._run_fast(until, max_events, stop)
        delivered = 0
        run_span = self.obs.span("sim.run", track=DEFAULT_TRACK)
        queue = self._queue
        try:
            while True:
                head = queue.peek_time()
                if head == _INF:
                    break
                if stop is not None and stop():
                    return self._now
                if until is not None and head > until:
                    self._now = until
                    return self._now
                if max_events is not None and delivered >= max_events:
                    return self._now
                self._dispatch(queue.pop())
                delivered += 1
            if until is not None:
                self._now = until
            return self._now
        finally:
            run_span.set(events=delivered).close()
            if self._obs_enabled:
                self.obs.metrics.gauge("sim.events_executed").set(
                    float(self._event_count))

    def _run_fast(self, until: Optional[float], max_events: Optional[int],
                  stop: Optional[Callable[[], bool]]) -> float:
        """Plain-mode run loop: walk calendar-queue batches inline.

        Semantically identical to the instrumented loop — same events,
        same order, same clock, same stopping entry — but with per-event
        work reduced to list indexing plus the callback walk, and with
        delivered fire-and-forget :class:`Timeout` objects recycled into
        the free pool.  Only called when ``self._plain`` (nothing
        observes deliveries).

        A run with ``stop`` or ``max_events`` is *checked*: each pass of
        the loop then starts at a gate that makes the instrumented
        loop's checks, in its order, before the next surfaced entry, and
        the pass delivers that one entry.  The gate opens the next batch
        only after its checks have passed, so ``stop`` sees the clock
        the previous entry left.  An unchecked run enters the gate's
        branch only when urgent events are due: an ordinary entry meets
        no test that a loop without the gate would not make, and an
        urgent one meets one more.

        Counter bookkeeping (``_event_count``, the queue's ``_count``)
        is flushed in ``finally`` so an exception escaping a process
        leaves the simulator consistent; the batch cursor is committed
        the same way, so delivery never repeats after a resume.  A
        checked run also brings ``_event_count`` up to date before each
        ``stop()``.
        """
        queue = self._queue
        preempt = queue._preempt
        pool = _TIMEOUT_POOL
        getrefcount = sys.getrefcount
        checked = stop is not None or max_events is not None
        # Tested at the top of each pass and after each callback walk.
        # Unchecked, it is the preempt deque itself, true while urgent
        # events are due; checked, it is always true, so that every
        # entry passes the gate on its own.
        gate = True if checked else preempt
        count = 0      # events delivered
        flushed = 0    # the part of ``count`` already in _event_count
        # Remaining pool capacity, maintained locally: it only changes
        # under this loop's control except while callbacks run (they may
        # create pooled timeouts), so it is recomputed after every
        # callback walk instead of calling len() per delivery.
        free = _POOL_MAX - len(pool)
        try:
            while True:
                if gate:
                    if checked:
                        head = queue.peek_time()
                        if head == _INF:
                            break
                        if stop is not None:
                            self._event_count += count - flushed
                            flushed = count
                            if stop():
                                return self._now
                        if until is not None and head > until:
                            break
                        if max_events is not None and count >= max_events:
                            return self._now
                        if (not preempt and queue._active_index
                                == len(queue._active)):
                            # The entry opens the next batch, and only
                            # now does the clock move to it.
                            self._now = queue._advance()
                    if preempt:
                        # Urgent events due now beat every undelivered
                        # normal event due now — the (when, PRIORITY,
                        # seq) contract.
                        while preempt:
                            event = preempt.popleft()
                            callbacks = event._callbacks
                            event._callbacks = _DELIVERED
                            count += 1
                            if callbacks is not None:
                                for callback in callbacks:
                                    callback(event)
                            if (event._status is _FAILED
                                    and not event.defused):
                                raise SimulationError(
                                    f"unhandled failure in {event!r}"
                                ) from event._value
                            if checked:
                                break  # the gate comes first for the next
                        free = _POOL_MAX - len(pool)
                        continue  # the drain may have scheduled more urgents
                    # Only a checked run gets here: deliver the one entry
                    # the gate passed.
                    batch = queue._active
                    i = queue._active_index
                    n = i + 1
                else:
                    batch = queue._active
                    i = queue._active_index
                    n = len(batch)
                if i < n:
                    try:
                        while i < n:
                            event = batch[i]
                            i += 1
                            callbacks = event._callbacks
                            if callbacks is None:
                                # Fire-and-forget: nobody is waiting.
                                count += 1
                                # Recycle if provably unreferenced: the
                                # batch slot, the loop variable, and
                                # getrefcount's argument are the only
                                # remaining references.  A Timeout is
                                # born SUCCEEDED and can never fail, so
                                # the unhandled-failure check is moot
                                # and _callbacks can stay None for the
                                # pool.
                                if (free > 0
                                        and type(event) is Timeout
                                        and getrefcount(event) == 3):
                                    free -= 1
                                    event.sim = None  # type: ignore[assignment]
                                    event._value = None
                                    pool.append(event)
                                else:
                                    event._callbacks = _DELIVERED
                                    if (event._status is _FAILED
                                            and not event.defused):
                                        raise SimulationError(
                                            f"unhandled failure in {event!r}"
                                        ) from event._value
                            else:
                                event._callbacks = _DELIVERED
                                count += 1
                                for callback in callbacks:
                                    callback(event)
                                free = _POOL_MAX - len(pool)
                                if type(event) is Timeout:
                                    # A delivered Timeout whose waiters
                                    # all detached (the common yield
                                    # pattern) is recyclable the same
                                    # way a fire-and-forget one is.
                                    if (free > 0
                                            and getrefcount(event) == 3):
                                        free -= 1
                                        event._callbacks = None
                                        event.sim = None  # type: ignore[assignment]
                                        event._value = None
                                        event.defused = False
                                        pool.append(event)
                                elif (event._status is _FAILED
                                        and not event.defused):
                                    raise SimulationError(
                                        f"unhandled failure in {event!r}"
                                    ) from event._value
                                if gate:
                                    # A callback raised an interrupt due
                                    # at this instant, which preempts the
                                    # rest of the batch, or the run is
                                    # checked.
                                    break
                                # Callbacks may have appended events due
                                # at this same instant; the no-callback
                                # branch cannot.
                                n = len(batch)
                    finally:
                        queue._active_index = i
                    continue
                times = queue._times
                if not times:
                    break
                t = times[0]
                if until is not None and t > until:
                    break
                # Inlined CalendarEventQueue._advance.
                heappop(times)
                self._now = t
                queue._active_time = t
                if queue._urgent:
                    pre = queue._urgent.pop(t, None)
                    if pre is not None:
                        preempt.extend(pre)
                next_batch = queue._slots.pop(t, None)
                queue._active = next_batch if next_batch is not None else []
                queue._active_index = 0
            if until is not None:
                self._now = until
            return self._now
        finally:
            self._event_count += count - flushed
            queue._count -= count

    def quiesce(self) -> int:
        """Close every unfinished process generator, in spawn order, then
        drop every entry still queued.

        Supervisors call this once, after the last :meth:`run`, so that
        suspended helper processes (abandoned by a teardown, or parked on
        an event that will never fire) unwind *deterministically* instead
        of whenever the garbage collector finds them: ``GeneratorExit``
        closes any spans still open inside the body with status
        ``"error"`` at the final clock reading, and the process's own
        span closes as ``"abandoned"``.  The entries left in the queue
        (a stopped monitor's timers, wakeups nobody will take) have
        callbacks that lead back to processes, services and this
        simulator; dropping them lets most of a finished run's objects
        go when their last reference does, not at the cyclic
        collector's next pass.  Returns the number of processes closed.
        Idempotent; finished processes are never touched.
        """
        closed = 0
        while self._live_processes:
            process = next(iter(self._live_processes))
            del self._live_processes[process]
            process.generator.close()
            if process._obs_span is not None:
                process._obs_span.close("abandoned")
            closed += 1
        self._queue = CalendarEventQueue() if self._wheel else HeapEventQueue()
        return closed

    def run_process(self, generator: Generator[Event, Any, Any],
                    name: str = "") -> Any:
        """Convenience: spawn ``generator``, run to completion, return its
        result (re-raising the exception if it failed)."""
        proc = self.process(generator, name)
        proc.defused = True  # we re-raise below; step() must not also raise
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} deadlocked: event queue drained while "
                "it was still waiting"
            )
        if not proc.ok:
            raise proc.value
        return proc.value
