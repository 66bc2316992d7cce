"""Event lifecycle, combinators, and delivery semantics."""

import pytest

from repro.sim import AllOf, AnyOf, EventStatus, Simulator, Timeout
from repro.sim.engine import SimulationError


class TestEventLifecycle:
    def test_starts_pending(self, sim):
        event = sim.event("e")
        assert event.status is EventStatus.PENDING
        assert not event.triggered

    def test_value_raises_while_pending(self, sim):
        with pytest.raises(RuntimeError):
            sim.event().value

    def test_succeed_carries_value(self, sim):
        event = sim.event().succeed(42)
        assert event.ok
        assert event.value == 42

    def test_fail_carries_exception(self, sim):
        exc = ValueError("boom")
        event = sim.event()
        event.defused = True
        event.fail(exc)
        assert event.triggered and not event.ok
        assert event.value is exc
        sim.run()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_double_trigger_rejected(self, sim):
        event = sim.event().succeed(1)
        with pytest.raises(RuntimeError):
            event.succeed(2)
        with pytest.raises(RuntimeError):
            event.fail(ValueError())

    def test_unhandled_failure_surfaces_in_run(self, sim):
        sim.event("doomed").fail(RuntimeError("lost"))
        with pytest.raises(SimulationError):
            sim.run()

    def test_defused_failure_is_quiet(self, sim):
        event = sim.event()
        event.defused = True
        event.fail(RuntimeError("handled elsewhere"))
        sim.run()  # no raise


class TestCallbackDelivery:
    def test_callbacks_run_in_registration_order(self, sim):
        order = []
        event = sim.event()
        event.add_callback(lambda e: order.append(1))
        event.add_callback(lambda e: order.append(2))
        event.succeed()
        sim.run()
        assert order == [1, 2]

    def test_late_callback_still_runs(self, sim):
        event = sim.event().succeed("v")
        sim.run()
        got = []
        event.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == ["v"]

    def test_late_callbacks_do_not_recurse(self, sim):
        """A long chain of already-triggered yields must not overflow the
        Python stack (regression: late callbacks go through the queue)."""
        def chaser(sim, events):
            for event in events:
                yield event
            return "done"

        events = [sim.event().succeed(i) for i in range(5000)]
        sim.run()
        assert sim.run_process(chaser(sim, events)) == "done"


class TestTimeout:
    def test_advances_clock(self, sim):
        sim.process(iter_timeout(sim, 2.5))
        assert sim.run() == pytest.approx(2.5)

    def test_rejects_negative_delay(self, sim):
        with pytest.raises(ValueError):
            Timeout(sim, -1.0)

    def test_zero_delay_fires_now(self, sim):
        fired = []
        sim.timeout(0.0).add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]

    def test_carries_value(self, sim):
        def body(sim):
            got = yield sim.timeout(1.0, value="payload")
            return got

        assert sim.run_process(body(sim)) == "payload"


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


class TestAllOf:
    def test_waits_for_every_child(self, sim):
        def body(sim):
            values = yield AllOf(sim, [sim.timeout(1, "a"),
                                       sim.timeout(3, "b"),
                                       sim.timeout(2, "c")])
            return values, sim.now

        values, now = sim.run_process(body(sim))
        assert values == ["a", "b", "c"]
        assert now == pytest.approx(3.0)

    def test_empty_succeeds_immediately(self, sim):
        def body(sim):
            result = yield AllOf(sim, [])
            return result

        assert sim.run_process(body(sim)) == []

    def test_child_failure_fails_the_combinator(self, sim):
        def body(sim):
            bad = sim.event()
            bad.fail(ValueError("child"))
            try:
                yield AllOf(sim, [sim.timeout(1), bad])
            except ValueError as exc:
                return str(exc)

        assert sim.run_process(body(sim)) == "child"

    def test_rejects_cross_simulator_events(self, sim):
        other = Simulator()
        with pytest.raises(ValueError):
            AllOf(sim, [other.event()])


class TestOperatorSugar:
    def test_and_waits_for_both(self, sim):
        def body(sim):
            values = yield sim.timeout(1, "a") & sim.timeout(3, "b")
            return values, sim.now

        values, now = sim.run_process(body(sim))
        assert values == ["a", "b"]
        assert now == pytest.approx(3.0)

    def test_or_returns_first(self, sim):
        def body(sim):
            index, value = yield sim.timeout(5, "slow") | sim.timeout(1, "quick")
            return index, value, sim.now

        index, value, now = sim.run_process(body(sim))
        assert (index, value) == (1, "quick")
        assert now == pytest.approx(1.0)

    def test_chaining(self, sim):
        def body(sim):
            both_then_any = (sim.timeout(1) & sim.timeout(2)) | sim.timeout(10)
            index, _value = yield both_then_any
            return index, sim.now

        index, now = sim.run_process(body(sim))
        assert index == 0
        assert now == pytest.approx(2.0)

    def test_non_event_operand_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.event() & 42
        with pytest.raises(TypeError):
            sim.event() | "x"


class TestAnyOf:
    def test_first_wins_with_index(self, sim):
        def body(sim):
            index, value = yield AnyOf(sim, [sim.timeout(5, "slow"),
                                             sim.timeout(1, "fast")])
            return index, value, sim.now

        index, value, now = sim.run_process(body(sim))
        assert (index, value) == (1, "fast")
        assert now == pytest.approx(1.0)

    def test_requires_children(self, sim):
        with pytest.raises(ValueError):
            AnyOf(sim, [])

    def test_losers_do_not_disturb(self, sim):
        """Remaining timeouts fire after the winner without effect."""
        def body(sim):
            result = yield AnyOf(sim, [sim.timeout(1, "x"), sim.timeout(2, "y")])
            yield sim.timeout(5)
            return result

        assert sim.run_process(body(sim)) == (0, "x")
