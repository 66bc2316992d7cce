"""Property-based tests on the event kernel (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.sim import DetSanRecorder, Resource, Simulator, Store


@st.composite
def delay_lists(draw):
    return draw(st.lists(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=30,
    ))


class TestTimeMonotonicity:
    @given(delay_lists())
    @settings(max_examples=50, deadline=None)
    def test_delivery_times_never_decrease(self, delays):
        recorder = DetSanRecorder()
        sim = Simulator(detsan=recorder)
        for delay in delays:
            sim.timeout(delay)
        sim.run()
        times = [record.time for record in recorder.records]
        assert times == sorted(times)
        assert sim.now == max(delays)

    @given(delay_lists())
    @settings(max_examples=30, deadline=None)
    def test_nested_sleep_sums(self, delays):
        sim = Simulator()

        def body(sim):
            for delay in delays:
                yield sim.timeout(delay)
            return sim.now

        total = sim.run_process(body(sim))
        assert abs(total - sum(delays)) < 1e-6 * max(1.0, sum(delays))


class TestResourceInvariants:
    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1,
                 max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, capacity, holds):
        sim = Simulator()
        resource = Resource(sim, capacity=capacity)
        violations = []

        def user(sim, resource, hold):
            yield resource.request()
            if resource.in_use > capacity:
                violations.append(resource.in_use)
            yield sim.timeout(hold)
            resource.release()

        for hold in holds:
            sim.process(user(sim, resource, hold))
        sim.run()
        assert not violations
        assert resource.in_use == 0
        assert resource.queue_length == 0

    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=2,
                 max_size=15),
    )
    @settings(max_examples=50, deadline=None)
    def test_grants_are_fifo(self, capacity, holds):
        sim = Simulator()
        resource = Resource(sim, capacity=capacity)
        grant_order = []

        def user(sim, resource, index, hold):
            yield resource.request()
            grant_order.append(index)
            yield sim.timeout(hold)
            resource.release()

        for index, hold in enumerate(holds):
            sim.process(user(sim, resource, index, hold))
        sim.run()
        # All requests arrive at t=0 in index order, so grants (whenever
        # they happen) must be in index order too.
        assert grant_order == sorted(grant_order)


class TestStoreInvariants:
    @given(st.lists(st.integers(), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_items_conserved_and_ordered(self, items):
        sim = Simulator()
        store = Store(sim)
        received = []

        def producer(sim, store):
            for item in items:
                yield store.put(item)

        def consumer(sim, store):
            for _ in range(len(items)):
                received.append((yield store.get()))

        sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        sim.run()
        assert received == items
        assert len(store) == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                 max_size=30),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_store_never_overfills(self, items, capacity):
        sim = Simulator()
        store = Store(sim, capacity=capacity)
        max_seen = []

        def producer(sim, store):
            for item in items:
                yield store.put(item)
                max_seen.append(len(store))

        def consumer(sim, store):
            for _ in range(len(items)):
                yield sim.timeout(0.1)
                yield store.get()

        sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        sim.run()
        assert max(max_seen) <= capacity
