"""Differential harness: the calendar queue must equal the heap, exactly.

The calendar-queue kernel is only admissible because it is *observably
identical* to the binary heap it replaced — same pop order under the
``(when, priority, seq)`` tie-break contract, same DetSan digests and
records, same results.  This module pins that down at four levels:

* **queue level** — hypothesis-generated random schedules (same-instant
  ties, urgent entries, far-future events, interleaved pops) driven
  against both structures simultaneously, asserting entry-for-entry
  identical pop sequences;
* **simulator level** — the same workload run on ``queue="heap"`` and
  ``queue="wheel"`` produces byte-identical DetSan digests (pinned to an
  absolute value) and DetSan record streams, including under
  interrupts;
* **fast-path level** — the plain-mode run loop (no DetSan, no
  observability) delivers the same events in the same order as the
  instrumented loop, observed through workload-visible effects and
  counters;
* **stop and budget** — ``run(stop=, max_events=, until=)`` on
  generated schedules stops at the same entry, with the same clock and
  queue, on the plain wheel, the wheel under DetSan and the heap, and a
  later ``run()`` resumes identically.

Contract note: the engine only ever pushes at ``now + delay`` with
``delay >= 0``, so the generated schedules never push into the past —
that is the (documented) precondition the calendar queue's active-slot
cursor relies on.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import (
    CalendarEventQueue,
    DetSanRecorder,
    HeapEventQueue,
    Interrupt,
    Resource,
    Simulator,
    Store,
)
from repro.sim.detsan import first_divergence


class _Stub:
    """Minimal event stand-in: the queues only touch ``_seq``."""

    __slots__ = ("_seq",)

    def __init__(self) -> None:
        self._seq = 0


#: Delay pool biased toward ties (repeated values) and including zero
#: (same-instant scheduling) and a far-future outlier.
_DELAYS = (0.0, 0.0, 0.25, 1.0, 1.0, 1.0, 3.5, 1e6)


@st.composite
def _schedules(draw, priorities=(0, 1, 1, 1)):
    """A list of queue operations: ("push", delay, priority) or "pop".

    ``priorities`` is the sampling pool: the default is the engine's
    real mix (urgent events are rare); pass ``(0, 0, 0, 1)`` for the
    urgent-heavy traces that stress the side table.
    """
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("push"),
                      st.sampled_from(_DELAYS),
                      st.sampled_from(priorities)),
            st.just("pop"),
        ),
        min_size=1, max_size=200,
    ))


def _drive(ops):
    """Run one schedule against both queues, asserting lock-step parity."""
    heap = HeapEventQueue()
    wheel = CalendarEventQueue()
    seq = 0
    now = 0.0
    popped = []

    def pop_both():
        nonlocal now
        a = heap.pop()
        b = wheel.pop()
        if a is None or b is None:
            assert a is None and b is None, (a, b)
            return None
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2], (a, b)
        assert a[3] is b[3]
        now = a[0]
        popped.append(a[:3])
        return a

    for op in ops:
        if op == "pop":
            pop_both()
        else:
            _, delay, priority = op
            seq += 1
            event = _Stub()
            when = now + delay
            heap.push(when, priority, seq, event)
            wheel.push(when, priority, seq, event)
        assert len(heap) == len(wheel)
        assert heap.peek_time() == wheel.peek_time()
    while pop_both() is not None:
        pass
    assert len(heap) == len(wheel) == 0
    return popped


class TestQueueLevelEquivalence:
    @given(_schedules())
    @settings(max_examples=200, deadline=None)
    def test_random_schedules_pop_identically(self, ops):
        popped = _drive(ops)
        # Independently of the differential check: time never runs
        # backwards.  (Full (when, priority, seq) order holds only among
        # entries co-resident in the queue — an urgent entry pushed
        # after a same-instant normal one was already popped follows it,
        # in both structures.)
        times = [entry[0] for entry in popped]
        assert times == sorted(times)

    def test_all_tied_batch_with_midstream_pushes(self):
        """Pushes landing at the active instant join the active batch."""
        heap, wheel = HeapEventQueue(), CalendarEventQueue()
        stubs = [_Stub() for _ in range(8)]
        for seq in range(5):
            heap.push(1.0, 1, seq + 1, stubs[seq])
            wheel.push(1.0, 1, seq + 1, stubs[seq])
        a, b = heap.pop(), wheel.pop()
        assert a[:3] == b[:3] == (1.0, 1, 1)
        # Now 1.0 is the wheel's active time; a same-instant push and an
        # urgent same-instant push must interleave exactly like the heap.
        heap.push(1.0, 1, 6, stubs[5])
        wheel.push(1.0, 1, 6, stubs[5])
        heap.push(1.0, 0, 7, stubs[6])
        wheel.push(1.0, 0, 7, stubs[6])
        order_heap, order_wheel = [], []
        while True:
            a, b = heap.pop(), wheel.pop()
            if a is None:
                assert b is None
                break
            order_heap.append(a)
            order_wheel.append(b)
        assert [e[:3] for e in order_heap] == [e[:3] for e in order_wheel]
        # The urgent entry beats every undelivered normal entry at 1.0.
        assert order_heap[0][1] == 0 and order_heap[0][2] == 7

    def test_far_future_entry_waits_its_turn(self):
        heap, wheel = HeapEventQueue(), CalendarEventQueue()
        far, near = _Stub(), _Stub()
        heap.push(1e9, 1, 1, far)
        wheel.push(1e9, 1, 1, far)
        heap.push(2.0, 1, 2, near)
        wheel.push(2.0, 1, 2, near)
        assert heap.peek_time() == wheel.peek_time() == 2.0
        assert heap.pop()[3] is wheel.pop()[3] is near
        assert heap.pop()[3] is wheel.pop()[3] is far

    @given(_schedules(priorities=(0, 0, 0, 1)))
    @settings(max_examples=200, deadline=None)
    def test_urgent_heavy_schedules_pop_identically(self, ops):
        """The urgent side table under a 3:1 urgent:normal mix.

        ``_drive`` asserts ``len()`` and ``peek_time()`` parity after
        every single operation, so this pins the count/peek contract of
        the urgent band, not just final pop order.
        """
        popped = _drive(ops)
        times = [entry[0] for entry in popped]
        assert times == sorted(times)

    def test_normal_push_on_urgent_only_time_no_duplicate_heap_entry(self):
        """Regression: a normal push landing on a time that only has
        urgent events queued must not enter ``_times`` a second time."""
        heap, wheel = HeapEventQueue(), CalendarEventQueue()
        urgent, normal = _Stub(), _Stub()
        for q in (heap, wheel):
            q.push(5.0, 0, 1, urgent)
            q.push(5.0, 1, 2, normal)
        # Exactly one distinct-time entry: the invariant the deduped
        # push-branch checks once.
        assert wheel._times == [5.0]
        assert len(heap) == len(wheel) == 2
        assert heap.peek_time() == wheel.peek_time() == 5.0
        a, b = heap.pop(), wheel.pop()
        assert a[:3] == b[:3] == (5.0, 0, 1)
        assert len(heap) == len(wheel) == 1
        a, b = heap.pop(), wheel.pop()
        assert a[:3] == b[:3] == (5.0, 1, 2)
        assert heap.pop() is None and wheel.pop() is None
        assert len(heap) == len(wheel) == 0

    def test_urgent_push_on_normal_only_time_no_duplicate_heap_entry(self):
        """The mirror image: urgent push landing on a normal-only time."""
        heap, wheel = HeapEventQueue(), CalendarEventQueue()
        normal, urgent = _Stub(), _Stub()
        for q in (heap, wheel):
            q.push(5.0, 1, 1, normal)
            q.push(5.0, 0, 2, urgent)
        assert wheel._times == [5.0]
        assert len(heap) == len(wheel) == 2
        a, b = heap.pop(), wheel.pop()
        assert a[:3] == b[:3] == (5.0, 0, 2)
        a, b = heap.pop(), wheel.pop()
        assert a[:3] == b[:3] == (5.0, 1, 1)
        assert len(heap) == len(wheel) == 0

    def test_push_urgent_uncounted_honours_its_name(self):
        """``_push_urgent_uncounted`` queues structurally but leaves
        ``len()`` to the caller — the documented hazard that used to hide
        behind the public ``push_urgent`` name."""
        wheel = CalendarEventQueue()
        stub = _Stub()
        stub._seq = 1
        wheel._push_urgent_uncounted(1.0, stub)
        assert len(wheel) == 0          # NOT maintained: caller's job.
        assert wheel.peek_time() == 1.0  # ...but structurally queued.
        # The public path does maintain the count.
        counted = CalendarEventQueue()
        counted.push(1.0, 0, 1, _Stub())
        assert len(counted) == 1
        assert counted.pop()[:3] == (1.0, 0, 1)
        assert len(counted) == 0


# -- simulator-level equivalence ---------------------------------------------

def _mixed_workload(sim):
    """Processes + ties + interrupts + resources, all in one pot: the
    shapes that would expose an ordering difference."""
    log = []
    resource = Resource(sim, capacity=2)
    store = Store(sim)

    def worker(wid):
        for step in range(4):
            yield sim.timeout(0.5 * (step % 2))  # deliberate ties
            log.append(("w", wid, step, sim.now))
        yield resource.request()
        yield sim.timeout(0.25)
        resource.release()
        log.append(("done", wid, sim.now))

    def producer():
        for i in range(6):
            yield store.put(i)
            yield sim.timeout(0.125)

    def consumer():
        for _ in range(6):
            item = yield store.get()
            log.append(("got", item, sim.now))

    def interrupter(victim):
        yield sim.timeout(0.75)
        if victim.is_alive:
            victim.interrupt("poke")

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as exc:
            log.append(("interrupted", str(exc.cause), sim.now))

    workers = [sim.process(worker(i), name=f"w{i}") for i in range(5)]
    sim.process(producer(), name="prod")
    sim.process(consumer(), name="cons")
    victim = sim.process(sleeper(), name="sleeper")
    sim.process(interrupter(victim), name="poker")
    sim.run()
    assert all(w.triggered for w in workers)
    return log


#: DetSan digest of ``_mixed_workload``'s 69 deliveries.  Pinned as an
#: absolute value so an engine change that moves both queues the same
#: way still fails.
_MIXED_WORKLOAD_DIGEST = (
    "552a62df14ece1af530bddafd2ab365eb0fc3b624c8b5659227b637d9d34c691")


class TestSimulatorLevelEquivalence:
    def test_detsan_digests_identical_heap_vs_wheel(self):
        recorders = {}
        for kind in ("heap", "wheel"):
            recorder = DetSanRecorder()
            sim = Simulator(detsan=recorder, queue=kind)
            _mixed_workload(sim)
            recorders[kind] = recorder
            assert recorder.events_folded == 69
            assert recorder.digest == _MIXED_WORKLOAD_DIGEST
            assert sim.now == 100.0
        assert (recorders["heap"].events_folded
                == recorders["wheel"].events_folded > 0)
        assert recorders["heap"].digest == recorders["wheel"].digest
        assert first_divergence(recorders["heap"],
                                recorders["wheel"]) is None

    def test_step_walks_both_queues_in_lockstep(self):
        """``step()`` delivers one entry at a time: on the heap and the
        wheel it walks the same tied schedule with the same clock,
        count and queue after every step."""
        heap, wheel = Simulator(queue="heap"), Simulator(queue="wheel")
        for sim in (heap, wheel):
            for delay in _DELAYS:
                sim.timeout(delay)
        while heap.peek() != float("inf"):
            heap.step()
            wheel.step()
            assert ((heap.now, heap.events_executed, heap.peek(),
                     len(heap._queue))
                    == (wheel.now, wheel.events_executed, wheel.peek(),
                        len(wheel._queue)))
        assert heap.events_executed == len(_DELAYS)
        assert wheel.peek() == float("inf")

    def test_workload_effects_identical_heap_vs_wheel(self):
        logs, counts, clocks = {}, {}, {}
        for kind in ("heap", "wheel"):
            sim = Simulator(queue=kind)
            logs[kind] = _mixed_workload(sim)
            counts[kind] = sim.events_executed
            clocks[kind] = sim.now
        assert logs["heap"] == logs["wheel"]
        assert counts["heap"] == counts["wheel"]
        assert clocks["heap"] == clocks["wheel"]


class TestFastPathEquivalence:
    """Plain-mode loop vs instrumented loop, both on the wheel."""

    def test_fast_path_matches_instrumented_effects(self):
        # Plain: wheel + no detsan/obs -> _run_fast.
        plain = Simulator(queue="wheel")
        assert plain.queue_kind == "wheel"
        plain_log = _mixed_workload(plain)
        # Instrumented: a DetSan recorder forces the general loop.
        traced = Simulator(detsan=DetSanRecorder(), queue="wheel")
        traced_log = _mixed_workload(traced)
        assert plain_log == traced_log
        assert plain.events_executed == traced.events_executed
        assert plain.now == traced.now

    def test_fast_path_matches_heap_under_same_seed_double_run(self):
        first = [_mixed_workload(Simulator(queue="wheel"))
                 for _ in range(2)]
        assert first[0] == first[1]
        heap_log = _mixed_workload(Simulator(queue="heap"))
        assert first[0] == heap_log


# -- stop and budget ----------------------------------------------------------
#
# ``run(stop=, max_events=)`` must stop at the same entry on every loop:
# the plain wheel's fast loop, the wheel's instrumented loop (DetSan on)
# and the heap.  The predicates below log what they see on every call,
# so the stop-call log is a per-entry trace of the clock and the
# delivery count, fire-and-forget entries included.

_RUN_DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5)


@st.composite
def _actors(draw):
    """A workload: bare timeouts, sleeping processes, interrupters and
    spawners."""
    delay = st.sampled_from(_RUN_DELAYS)
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("timeout"), delay),
            st.tuples(st.just("sleeper"),
                      st.lists(delay, min_size=1, max_size=4)),
            st.tuples(st.just("interrupter"), st.integers(0, 7), delay,
                      st.integers(1, 2)),
            st.tuples(st.just("spawner"), delay,
                      st.lists(delay, min_size=1, max_size=3)),
        ),
        min_size=1, max_size=12,
    ))


#: One run call: (predicate kind, threshold, budget, until offset).
_RUN_CALLS = st.tuples(
    st.sampled_from((None, "state", "clock", "count")),
    st.sampled_from((0, 1, 2, 3, 5, 8, 13)),
    st.one_of(st.none(), st.integers(0, 30)),
    st.one_of(st.none(), st.sampled_from((0.0, 0.5, 1.0, 2.0, 4.0))),
)


def _build_actors(sim, actors, log):
    """Queue ``actors`` on ``sim``; their effects go to ``log``."""
    sleepers = []

    def sleeper(sid, delays):
        for step, delay in enumerate(delays):
            try:
                yield sim.timeout(delay)
            except Interrupt:
                log.append(("interrupted", sid, step, sim.now))
                continue
            log.append(("woke", sid, step, sim.now))

    def interrupter(victim, delay, times):
        yield sim.timeout(delay)
        if victim.is_alive:
            for _ in range(times):  # same-instant urgent entries
                victim.interrupt()
            log.append(("poked", victim.name, sim.now))

    def spawner(sid, delay, delays):
        yield sim.timeout(delay)
        sim.process(sleeper(sid, delays), name=f"child{sid}")
        log.append(("spawned", sid, sim.now))

    for index, actor in enumerate(actors):
        kind = actor[0]
        if kind == "timeout":
            sim.timeout(actor[1])
        elif kind == "sleeper":
            sleepers.append(sim.process(sleeper(index, actor[1]),
                                        name=f"s{index}"))
        elif kind == "interrupter":
            if sleepers:
                victim = sleepers[actor[1] % len(sleepers)]
                sim.process(interrupter(victim, actor[2], actor[3]),
                            name=f"i{index}")
        else:
            sim.process(spawner(index, actor[1], actor[2]),
                        name=f"p{index}")


def _stop_predicate(kind, threshold, sim, log, seen):
    """A predicate reading workload state, the clock or the delivery
    count; every call logs what it sees."""
    if kind is None:
        return None

    def stop():
        seen.append((sim.now, sim.events_executed, len(log)))
        if kind == "state":
            return len(log) >= threshold
        if kind == "clock":
            return sim.now >= threshold
        return sim.events_executed >= threshold

    return stop


def _run_calls(sim, actors, calls):
    """Build the workload, make each run call, then drain; returns what
    each call returned and left behind."""
    log, seen = [], []
    _build_actors(sim, actors, log)
    observed = []
    for kind, threshold, budget, until in calls + [(None, 0, None, None)]:
        stop = _stop_predicate(kind, threshold, sim, log, seen)
        horizon = None if until is None else sim.now + until
        result = sim.run(until=horizon, max_events=budget, stop=stop)
        observed.append((result, sim.now, sim.events_executed, sim.peek(),
                         len(sim._queue), list(log), list(seen)))
    return observed


def _three_loops():
    """The plain wheel (fast loop), the wheel under DetSan and the heap
    (both on the instrumented loop)."""
    plain = Simulator(queue="wheel")
    assert plain._plain
    return {"plain": plain,
            "detsan": Simulator(detsan=DetSanRecorder(), queue="wheel"),
            "heap": Simulator(queue="heap")}


class TestStopAndBudgetEquivalence:
    """``run(stop=, max_events=, until=)`` stops at the same entry, with
    the same clock and queue, on the fast loop as on the instrumented
    one, and a later ``run()`` resumes identically."""

    @given(_actors(), st.lists(_RUN_CALLS, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_generated_runs_stop_and_resume_identically(self, actors,
                                                        calls):
        observed = {name: _run_calls(sim, actors, calls)
                    for name, sim in _three_loops().items()}
        assert observed["plain"] == observed["detsan"] == observed["heap"]

    def test_clock_predicate_sees_the_previous_entrys_clock(self):
        """The first entry at t=2 is checked with the clock still at 1,
        so it is delivered; the second is checked at 2 and stops."""
        for sim in _three_loops().values():
            for delay in (1.0, 2.0, 2.0):
                sim.timeout(delay)
            assert sim.run(stop=lambda: sim.now >= 2.0) == 2.0
            assert sim.events_executed == 2
            assert sim.peek() == 2.0
            assert sim.run() == 2.0
            assert sim.events_executed == 3

    def test_checks_run_in_the_instrumented_order(self):
        """``stop`` before ``until`` before the budget: with the next
        entry past ``until``, a spent budget still moves the clock to
        ``until``, and a holding ``stop`` leaves it where it was."""
        for sim in _three_loops().values():
            sim.timeout(0.5)
            sim.timeout(2.5)
            assert sim.run(until=1.0, max_events=1) == 1.0
        for sim in _three_loops().values():
            sim.timeout(0.5)
            sim.timeout(2.5)
            assert sim.run(until=1.0, stop=lambda: sim.now >= 0.5) == 0.5
            assert sim.events_executed == 1

    def test_stop_runs_between_same_instant_interrupts(self):
        for sim in _three_loops().values():
            caught = []

            def sleeper():
                for _ in range(3):
                    try:
                        yield sim.timeout(10.0)
                    except Interrupt:
                        caught.append(sim.now)

            def poker(victim):
                yield sim.timeout(1.0)
                victim.interrupt()
                victim.interrupt()

            sim.process(poker(sim.process(sleeper())))
            sim.run(stop=lambda: len(caught) == 1)
            assert caught == [1.0]
            sim.run(max_events=1)
            assert caught == [1.0, 1.0]
