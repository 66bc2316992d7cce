"""Event-pooling edge cases: recycling must never be observable.

The plain-mode fast loop recycles delivered fire-and-forget
:class:`~repro.sim.event.Timeout` objects into a shared free pool, and
``Simulator.timeout`` hands them out again.  The optimisation is only
legal if no program can tell: these tests pin the proof obligations —
recycling only provably-unreferenced objects, full state reset on
reuse, reuse across interrupt/multi-simulator boundaries, and the pool
capacity bound.
"""

import pytest

from repro.obs import Observability
from repro.sim import DetSanRecorder, Interrupt, Simulator
from repro.sim.event import _POOL_MAX, _TIMEOUT_POOL, Timeout


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Isolate every test from pool state left by earlier tests."""
    _TIMEOUT_POOL.clear()
    yield
    _TIMEOUT_POOL.clear()


class TestRecycling:
    def test_fire_and_forget_timeouts_are_pooled(self):
        sim = Simulator()
        for _ in range(100):
            sim.timeout(1.0)
        sim.run()
        assert sim.events_executed == 100
        assert len(_TIMEOUT_POOL) == 100

    def test_referenced_timeouts_are_never_recycled(self):
        sim = Simulator()
        held = [sim.timeout(1.0) for _ in range(10)]
        sim.run()
        assert len(_TIMEOUT_POOL) == 0
        assert all(t.triggered for t in held)

    def test_reuse_returns_pooled_object_with_fresh_state(self):
        sim = Simulator()
        sim.timeout(1.0, value="old")
        sim.run()
        assert len(_TIMEOUT_POOL) == 1
        pooled = _TIMEOUT_POOL[-1]
        event = sim.timeout(2.5, value="new")
        assert event is pooled
        assert len(_TIMEOUT_POOL) == 0
        assert event.delay == 2.5
        assert event.sim is sim
        assert not event.defused
        assert event.ok and event.value == "new"
        assert sim.run() == 3.5

    def test_yielded_timeouts_are_recycled_after_resume(self):
        """A process's yielded timeout is pooled once delivery resumed
        the process and the generator dropped its reference.

        The pool reaches steady state at one or two objects, not 50:
        each recycled timeout is handed straight back out by the next
        ``sim.timeout`` call, so the same object cycles through the
        whole loop and only the tail is left in the pool at the end.
        """
        sim = Simulator()

        def body():
            for _ in range(50):
                yield sim.timeout(1.0)

        sim.process(body())
        sim.run()
        assert sim.events_executed == 52  # bootstrap + 50 timeouts + process
        assert 1 <= len(_TIMEOUT_POOL) <= 2

    def test_generator_held_timeouts_are_not_recycled(self):
        """Holding the yielded timeout in a local defeats recycling —
        the refcount guard sees the generator's reference."""
        sim = Simulator()
        seen = []

        def body():
            for _ in range(5):
                event = sim.timeout(1.0)
                yield event
                seen.append(event.delay)

        sim.process(body())
        sim.run()
        # The last iteration's local survives in the finished frame at
        # most transiently; the point is the loop iterations did not
        # recycle while `event` was live.
        assert seen == [1.0] * 5

    @pytest.mark.parametrize("make_sim", [
        lambda: Simulator(detsan=DetSanRecorder()),
        lambda: Simulator(obs=Observability()),
        lambda: Simulator(queue="heap"),
    ], ids=["detsan", "obs", "heap"])
    def test_instrumented_mode_never_pools(self, make_sim):
        """Only the plain fast loop recycles: a run with DetSan, with
        recording observability or on the heap queue must not."""
        sim = make_sim()
        for _ in range(20):
            sim.timeout(1.0)
        sim.run()
        assert len(_TIMEOUT_POOL) == 0


class TestInterrupts:
    def test_interrupt_while_waiting_on_recycled_timeout(self):
        """A timeout that went through the pool behaves like a fresh one
        when a waiter on its second life is interrupted."""
        sim = Simulator()
        sim.timeout(1.0)
        sim.run()
        assert len(_TIMEOUT_POOL) == 1
        outcomes = []

        def sleeper():
            try:
                yield sim.timeout(100.0)  # reuses the pooled object
                outcomes.append("slept")
            except Interrupt as exc:
                outcomes.append(("interrupted", exc.cause, sim.now))

        def poker(victim):
            yield sim.timeout(2.0)
            victim.interrupt("wake")

        victim = sim.process(sleeper())
        sim.process(poker(victim))
        sim.run()
        assert outcomes == [("interrupted", "wake", 3.0)]

    def test_stale_wakeup_from_interrupted_wait_is_recycled(self):
        """The abandoned 100s timeout still fires (to nobody) and is
        then recycled like any other fire-and-forget event."""
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                pass

        def poker(victim):
            yield sim.timeout(1.0)
            victim.interrupt("wake")

        victim = sim.process(sleeper())
        sim.process(poker(victim))
        final = sim.run()
        # The stale 100s wakeup is the last event on the calendar.
        assert final == 100.0
        # poker's timeout + the stale wakeup both made it back.
        assert len(_TIMEOUT_POOL) >= 2


class TestPoolBoundaries:
    def test_pool_capacity_is_bounded(self):
        _TIMEOUT_POOL.extend(
            Timeout.__new__(Timeout) for _ in range(_POOL_MAX))
        for obj in _TIMEOUT_POOL:
            obj._callbacks = None
            obj.sim = None
            obj._value = None
            obj.defused = False
            obj._status = None
        sim = Simulator()
        # Drain part of the pool through reuse, then deliver: the pool
        # must never exceed its cap.
        for _ in range(1_000):
            sim.timeout(1.0)
        sim.run()
        assert len(_TIMEOUT_POOL) <= _POOL_MAX

    def test_cross_simulator_reuse_is_safe(self):
        first = Simulator()
        first.timeout(1.0, value="a")
        first.run()
        assert len(_TIMEOUT_POOL) == 1
        second = Simulator()
        event = second.timeout(2.0, value="b")
        assert event.sim is second
        assert second.run() == 2.0
        assert first.now == 1.0

    def test_quiesce_with_pooled_events_outstanding(self):
        """quiesce() unwinds parked processes without touching the pool
        or resurrecting recycled events."""
        sim = Simulator()
        for _ in range(10):
            sim.timeout(1.0)

        def parked():
            yield sim.event("never")

        sim.process(parked())
        sim.run()
        assert len(_TIMEOUT_POOL) == 10
        assert sim.quiesce() == 1
        assert len(_TIMEOUT_POOL) == 10
        assert sim.quiesce() == 0

    def test_quiesce_drops_what_is_still_queued(self):
        """A finished run's queued entries (timers, wakeups nobody will
        take) do not outlive quiesce(), on either queue."""
        for kind in ("wheel", "heap"):
            sim = Simulator(queue=kind)

            def sleeper():
                yield sim.timeout(5.0)

            sim.process(sleeper())
            sim.timeout(3.0)
            sim.run(until=1.0)
            assert sim.peek() == 3.0
            assert sim.quiesce() == 1
            assert sim.peek() == float("inf")
            assert len(sim._queue) == 0
            assert sim.run() == 1.0
            assert sim.events_executed == 1  # the start event alone
