"""Resource and Store queueing semantics."""

import pytest

from repro.sim import Resource, Store


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grant_within_capacity_is_immediate(self, sim):
        resource = Resource(sim, capacity=2)

        def body(sim, resource):
            yield resource.request()
            return sim.now

        assert sim.run_process(body(sim, resource)) == 0.0

    def test_fifo_over_capacity(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def user(sim, resource, name, hold):
            yield resource.request()
            order.append((name, sim.now))
            yield sim.timeout(hold)
            resource.release()

        sim.process(user(sim, resource, "first", 2.0))
        sim.process(user(sim, resource, "second", 1.0))
        sim.process(user(sim, resource, "third", 1.0))
        sim.run()
        assert order == [("first", 0.0), ("second", 2.0), ("third", 3.0)]

    def test_release_without_request_rejected(self, sim):
        resource = Resource(sim)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_release_hands_slot_directly(self, sim):
        resource = Resource(sim, capacity=1)

        def holder(sim, resource):
            yield resource.request()
            yield sim.timeout(1)
            resource.release()

        def waiter(sim, resource):
            yield resource.request()
            in_use = resource.in_use
            resource.release()
            return in_use

        sim.process(holder(sim, resource))
        waiter_proc = sim.process(waiter(sim, resource))
        sim.run()
        # Slot moved holder -> waiter without dipping to zero.
        assert waiter_proc.value == 1

    def test_queue_length_tracks_waiters(self, sim):
        resource = Resource(sim, capacity=1)

        def user(sim, resource):
            yield resource.request()
            yield sim.timeout(5)
            resource.release()

        for _ in range(4):
            sim.process(user(sim, resource))
        sim.run(until=1.0)
        assert resource.in_use == 1
        assert resource.queue_length == 3

    def test_fresh_resource_reports_an_empty_queue(self, sim):
        resource = Resource(sim, capacity=2, name="nic3")
        assert resource.queue_length == 0
        assert repr(resource) == "<Resource nic3 0/2 q=0>"
        assert resource.request().name == "nic3.grant"
        assert repr(resource) == "<Resource nic3 1/2 q=0>"

    def test_wait_queue_keeps_fifo_and_drains(self, sim):
        resource = Resource(sim, capacity=1, name="link")
        order = []

        def user(name):
            yield resource.request()
            order.append((name, sim.now))
            yield sim.timeout(1.0)
            resource.release()

        for name in "abc":
            sim.process(user(name))
        sim.run(until=0.5)
        assert resource.queue_length == 2
        assert repr(resource) == "<Resource link 1/1 q=2>"
        sim.run()
        assert resource.queue_length == 0
        assert resource.in_use == 0
        # A second burst reuses the drained queue, still first come,
        # first served.
        for name in "def":
            sim.process(user(name))
        sim.run()
        assert order == [("a", 0.0), ("b", 1.0), ("c", 2.0),
                         ("d", 3.0), ("e", 4.0), ("f", 5.0)]
        assert resource.queue_length == 0
        assert resource.in_use == 0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def producer(sim, store):
            yield store.put("item")

        def consumer(sim, store):
            item = yield store.get()
            return item

        sim.process(producer(sim, store))
        consumer_proc = sim.process(consumer(sim, store))
        sim.run()
        assert consumer_proc.value == "item"

    def test_get_parks_until_put(self, sim):
        store = Store(sim)

        def consumer(sim, store):
            item = yield store.get()
            return item, sim.now

        def producer(sim, store):
            yield sim.timeout(5)
            yield store.put("late")

        consumer_proc = sim.process(consumer(sim, store))
        sim.process(producer(sim, store))
        sim.run()
        assert consumer_proc.value == ("late", 5.0)

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        received = []

        def producer(sim, store):
            for index in range(5):
                yield store.put(index)

        def consumer(sim, store):
            for _ in range(5):
                item = yield store.get()
                received.append(item)

        sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        sim.run()
        assert received == [0, 1, 2, 3, 4]

    def test_capacity_blocks_putter(self, sim):
        store = Store(sim, capacity=1)
        times = []

        def producer(sim, store):
            for index in range(2):
                yield store.put(index)
                times.append(sim.now)

        def consumer(sim, store):
            yield sim.timeout(3)
            yield store.get()

        sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        sim.run()
        # Second put only completed once the consumer drained one item.
        assert times[0] == 0.0
        assert times[1] == pytest.approx(3.0)

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_filtered_get_skips_non_matching(self, sim):
        store = Store(sim)

        def producer(sim, store):
            yield store.put(("b", 1))
            yield store.put(("a", 2))

        def consumer(sim, store):
            item = yield store.get(lambda i: i[0] == "a")
            return item

        sim.process(producer(sim, store))
        consumer_proc = sim.process(consumer(sim, store))
        sim.run()
        assert consumer_proc.value == ("a", 2)
        # The non-matching item stays queued.
        assert len(store) == 1

    def test_filtered_get_preserves_order_for_others(self, sim):
        store = Store(sim)
        got = []

        def producer(sim, store):
            for item in [("x", 1), ("y", 2), ("x", 3)]:
                yield store.put(item)

        def picky(sim, store):
            item = yield store.get(lambda i: i[0] == "y")
            got.append(("picky", item))

        def greedy(sim, store):
            for _ in range(2):
                item = yield store.get()
                got.append(("greedy", item))

        sim.process(producer(sim, store))
        sim.process(picky(sim, store))
        sim.process(greedy(sim, store))
        sim.run()
        assert ("picky", ("y", 2)) in got
        greedy_items = [item for who, item in got if who == "greedy"]
        assert greedy_items == [("x", 1), ("x", 3)]

    def test_waiting_counters(self, sim):
        store = Store(sim)

        def consumer(sim, store):
            yield store.get()

        sim.process(consumer(sim, store))
        sim.run()  # drains: consumer parked
        assert store.waiting_getters == 1
        assert store.waiting_putters == 0
