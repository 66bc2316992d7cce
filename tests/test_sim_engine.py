"""Engine semantics: determinism, processes, interrupts, run control."""

import pytest

from repro.sim import DetSanRecorder, Interrupt, Simulator
from repro.sim.engine import SimulationError


class TestClock:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_until_advances_exactly(self, sim):
        sim.process(self._sleeper(sim, 10.0))
        assert sim.run(until=4.0) == 4.0
        assert sim.now == 4.0
        assert sim.run() == pytest.approx(10.0)

    def test_run_until_past_raises(self, sim):
        sim.process(self._sleeper(sim, 5.0))
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_empty_run_reaches_until(self, sim):
        assert sim.run(until=7.0) == 7.0

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == pytest.approx(3.0)

    def test_max_events_bounds_work(self, sim):
        for _ in range(10):
            sim.timeout(1.0)
        sim.run(max_events=3)
        assert sim.events_executed == 3

    @staticmethod
    def _sleeper(sim, delay):
        yield sim.timeout(delay)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def build():
            recorder = DetSanRecorder()
            sim = Simulator(detsan=recorder)

            def worker(sim, name, delay):
                yield sim.timeout(delay)
                yield sim.timeout(delay)

            for i in range(20):
                sim.process(worker(sim, f"w{i}", (i % 5) * 0.5), name=f"w{i}")
            sim.run()
            return [(r.time, r.name) for r in recorder.records]

        assert build() == build()

    def test_simultaneous_events_fire_in_schedule_order(self, sim):
        order = []

        def worker(sim, tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(worker(sim, tag))
        sim.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_return_value_is_event_value(self, sim):
        def body(sim):
            yield sim.timeout(1)
            return 99

        assert sim.run_process(body(sim)) == 99

    def test_exception_propagates(self, sim):
        def body(sim):
            yield sim.timeout(1)
            raise KeyError("blown")

        with pytest.raises(KeyError):
            sim.run_process(body(sim))

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_yielding_non_event_fails_cleanly(self, sim):
        def body(sim):
            yield 42

        with pytest.raises(SimulationError, match="must yield Event"):
            sim.run_process(body(sim))

    def test_yielding_foreign_event_fails(self, sim):
        other = Simulator()

        def body(sim):
            yield other.timeout(1)

        with pytest.raises(SimulationError, match="another simulator"):
            sim.run_process(body(sim))

    def test_waiting_on_child_process(self, sim):
        def child(sim):
            yield sim.timeout(2)
            return "child-result"

        def parent(sim):
            result = yield sim.process(child(sim))
            return result, sim.now

        assert sim.run_process(parent(sim)) == ("child-result", 2.0)

    def test_child_failure_propagates_to_parent(self, sim):
        def child(sim):
            yield sim.timeout(1)
            raise ValueError("inner")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except ValueError as exc:
                return f"caught {exc}"

        assert sim.run_process(parent(sim)) == "caught inner"

    def test_deadlock_detected(self, sim):
        def body(sim):
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(body(sim))

    def test_active_process_visible_during_step(self, sim):
        seen = []

        def body(sim):
            seen.append(sim.active_process)
            yield sim.timeout(1)

        process = sim.process(body(sim))
        sim.run()
        assert seen == [process]
        assert sim.active_process is None


class TestInterrupt:
    def test_interrupt_wakes_sleeper_early(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(100)
                return "overslept"
            except Interrupt as interrupt:
                return ("woken", interrupt.cause, sim.now)

        def alarm(sim, victim):
            yield sim.timeout(3)
            victim.interrupt("alarm!")

        victim = sim.process(sleeper(sim))
        sim.process(alarm(sim, victim))
        sim.run()
        assert victim.value == ("woken", "alarm!", 3.0)

    def test_stale_wakeup_after_interrupt_ignored(self, sim):
        """The abandoned timeout fires later and must not resume the
        process a second time."""
        def sleeper(sim):
            try:
                yield sim.timeout(10)
            except Interrupt:
                yield sim.timeout(20)  # outlives the stale timeout at t=10
                return sim.now

        def alarm(sim, victim):
            yield sim.timeout(1)
            victim.interrupt()

        victim = sim.process(sleeper(sim))
        sim.process(alarm(sim, victim))
        sim.run()
        assert victim.value == pytest.approx(21.0)

    def test_interrupting_finished_process_rejected(self, sim):
        def quick(sim):
            yield sim.timeout(1)

        process = sim.process(quick(sim))
        sim.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

    def test_uncaught_interrupt_fails_process(self, sim):
        def fragile(sim):
            yield sim.timeout(100)

        def alarm(sim, victim):
            yield sim.timeout(1)
            victim.interrupt("no handler")

        victim = sim.process(fragile(sim))
        victim.defused = True
        sim.process(alarm(sim, victim))
        sim.run()
        assert not victim.ok
        assert isinstance(victim.value, Interrupt)

    def test_double_interrupt_delivered_in_order(self, sim):
        causes = []

        def sturdy(sim):
            for _ in range(2):
                try:
                    yield sim.timeout(100)
                except Interrupt as interrupt:
                    causes.append(interrupt.cause)
            return causes

        def alarm(sim, victim):
            yield sim.timeout(1)
            victim.interrupt("first")
            victim.interrupt("second")

        victim = sim.process(sturdy(sim))
        sim.process(alarm(sim, victim))
        sim.run()
        assert victim.value == ["first", "second"]


class TestEventRecords:
    def test_records_event_stream(self):
        recorder = DetSanRecorder()
        sim = Simulator(detsan=recorder)

        def body(sim):
            yield sim.timeout(1.0)

        sim.process(body(sim), name="traced")
        sim.run()
        assert any("timeout" in r.name for r in recorder.records)
        assert all(r.time >= 0 for r in recorder.records)
