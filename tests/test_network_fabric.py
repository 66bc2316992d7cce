"""Fabric transfer timing, contention, and circuit-switching behaviour."""

import hashlib
import tracemalloc

import pytest

from repro.network import (
    Fabric,
    FabricFaultPlan,
    FatTreeTopology,
    NetworkUnreachable,
    SingleSwitchTopology,
    ThreeLevelFatTreeTopology,
    TransferDropped,
    TransferOutcome,
    get_interconnect,
)
from repro.sim import DetSanRecorder, RandomStreams, Simulator, Task


def build_fabric(hosts=4, technology="gigabit_ethernet", **kwargs):
    sim = Simulator()
    fabric = Fabric(sim, SingleSwitchTopology(hosts),
                    get_interconnect(technology), **kwargs)
    return sim, fabric


class TestUncontendedTiming:
    def test_matches_closed_form(self):
        sim, fabric = build_fabric()

        def body():
            end = (yield from fabric.transfer_ex(0, 1, 10_000)).end
            return end

        result = sim.run_process(body())
        assert result == pytest.approx(fabric.uncontended_time(0, 1, 10_000))

    def test_self_transfer_is_cheap(self):
        sim, fabric = build_fabric()

        def body():
            yield from fabric.transfer_ex(2, 2, 1_000_000)
            return sim.now

        elapsed = sim.run_process(body())
        params = fabric.technology.loggp
        # Far cheaper than the network path for the same size.
        assert elapsed < fabric.uncontended_time(0, 1, 1_000_000)
        assert elapsed >= params.overhead

    def test_larger_messages_take_longer(self):
        _sim, fabric = build_fabric()
        assert (fabric.uncontended_time(0, 1, 1 << 20)
                > fabric.uncontended_time(0, 1, 1 << 10))

    def test_multi_hop_charges_hop_latency(self):
        sim = Simulator()
        technology = get_interconnect("infiniband_4x")
        fabric = Fabric(sim, ThreeLevelFatTreeTopology(4), technology)
        near = fabric.uncontended_time(0, 1, 0)       # 2 hops, one edge
        pod = fabric.uncontended_time(0, 2, 0)        # 4 hops, one pod
        far = fabric.uncontended_time(0, 15, 0)       # 6 hops, via a core
        assert pod - near == pytest.approx(2 * technology.hop_latency)
        assert far - near == pytest.approx(4 * technology.hop_latency)

    def test_validation(self):
        sim, fabric = build_fabric()

        def bad_size():
            yield from fabric.transfer_ex(0, 1, -5)

        with pytest.raises(ValueError):
            sim.run_process(bad_size())

        def bad_host():
            yield from fabric.transfer_ex(0, 99, 5)

        with pytest.raises(IndexError):
            sim.run_process(bad_host())


class TestContention:
    def test_shared_link_serializes(self):
        """Two large transfers into the same destination share its host
        link; the second must finish roughly one serialization later."""
        sim, fabric = build_fabric(contention=True)
        nbytes = 10_000_000
        ends = {}

        def sender(name, src):
            end = (yield from fabric.transfer_ex(src, 3, nbytes)).end
            ends[name] = end

        sim.process(sender("a", 0))
        sim.process(sender("b", 1))
        sim.run()
        serialization = nbytes * fabric.technology.loggp.gap_per_byte
        assert abs(ends["a"] - ends["b"]) == pytest.approx(serialization,
                                                           rel=0.05)

    def test_disjoint_paths_do_not_interfere(self):
        sim, fabric = build_fabric(hosts=4, contention=True)
        nbytes = 10_000_000
        ends = {}

        def sender(name, src, dst):
            end = (yield from fabric.transfer_ex(src, dst, nbytes)).end
            ends[name] = end

        sim.process(sender("a", 0, 1))
        sim.process(sender("b", 2, 3))
        sim.run()
        assert ends["a"] == pytest.approx(ends["b"])
        assert ends["a"] == pytest.approx(fabric.uncontended_time(0, 1, nbytes))

    def test_contention_off_lets_transfers_overlap(self):
        sim, fabric = build_fabric(contention=False)
        nbytes = 10_000_000
        ends = []

        def sender(src):
            end = (yield from fabric.transfer_ex(src, 3, nbytes)).end
            ends.append(end)

        sim.process(sender(0))
        sim.process(sender(1))
        sim.run()
        assert ends[0] == pytest.approx(ends[1])

    def test_no_deadlock_under_crossing_traffic(self):
        """All-pairs simultaneous transfers on a three-level fat tree
        complete (the total-order acquisition claim)."""
        sim = Simulator()
        fabric = Fabric(sim, ThreeLevelFatTreeTopology(4),
                        get_interconnect("infiniband_4x"), contention=True)
        done = []

        def sender(src, dst):
            yield from fabric.transfer_ex(src, dst, 100_000)
            done.append((src, dst))

        for src in range(16):
            for dst in range(16):
                if src != dst:
                    sim.process(sender(src, dst))
        sim.run()
        assert len(done) == 240


class TestCircuitSwitching:
    def test_first_transfer_pays_setup(self):
        sim = Simulator()
        technology = get_interconnect("optical_circuit")
        fabric = Fabric(sim, SingleSwitchTopology(4), technology)
        ends = []

        def body():
            first = (yield from fabric.transfer_ex(0, 1, 1_000)).end
            ends.append(first)
            second = (yield from fabric.transfer_ex(0, 1, 1_000)).end
            ends.append(second)

        sim.run_process(body())
        first_duration = ends[0]
        second_duration = ends[1] - ends[0]
        assert first_duration - second_duration == pytest.approx(
            technology.circuit_setup_seconds)

    def test_circuits_are_per_pair(self):
        sim = Simulator()
        technology = get_interconnect("optical_circuit")
        fabric = Fabric(sim, SingleSwitchTopology(4), technology)

        def body():
            yield from fabric.transfer_ex(0, 1, 0)
            t_before = sim.now
            yield from fabric.transfer_ex(0, 2, 0)   # new pair: pays setup
            return sim.now - t_before

        duration = sim.run_process(body())
        assert duration >= technology.circuit_setup_seconds


class TestAccounting:
    def test_bytes_and_counts(self):
        sim, fabric = build_fabric(record_transfers=True)

        def body():
            yield from fabric.transfer_ex(0, 1, 500)
            yield from fabric.transfer_ex(1, 2, 700)

        sim.run_process(body())
        assert fabric.bytes_moved == 1200
        assert fabric.transfer_count == 2
        assert len(fabric.records) == 2
        record = fabric.records[0]
        assert (record.src, record.dst, record.nbytes) == (0, 1, 500)
        assert record.duration > 0
        assert record.hops == 2

    def test_recording_off_by_default(self):
        sim, fabric = build_fabric()

        def body():
            yield from fabric.transfer_ex(0, 1, 500)

        sim.run_process(body())
        assert fabric.records == []


#: Pinned traffic: 300 seeded transfers between distinct hosts of a
#: 64-host fat tree, 8 hosts per leaf and 2 spines (4:1 oversubscribed),
#: all injected within 1 ms so they queue on shared links.
_PIN_HOSTS = 64
_PIN_TRANSFERS = 300


def _outage_plan():
    """Leaf 0's link to spine 0 (``s0``-``s8``) is down for [0.2, 0.7) ms,
    so routes through it are re-routed by ``route_avoiding`` and
    transfers on it in flight are dropped, and host 5's uplink
    blackholes its sends for [0.3, 0.6) ms."""
    return (FabricFaultPlan()
            .link_down(("s", 0), ("s", 8), 0.2e-3, 0.7e-3)
            .link_down_oneway(("h", 5), ("s", 0), 0.3e-3, 0.6e-3))


def _loss_plan():
    """No link or node window: host 5's one-way blackhole plus random
    drops and corruptions drawn from a named stream."""
    return (FabricFaultPlan(drop_probability=0.05, corrupt_probability=0.05,
                            rng=RandomStreams(2002).get("fabric.pin.loss"))
            .link_down_oneway(("h", 5), ("s", 0), 0.3e-3, 0.6e-3))


def _run_pinned_traffic(plan):
    """Run the pinned traffic under DetSan, with ``plan`` (or no fault
    plan), and return the digest, events folded, final clock and
    completed transfers."""
    recorder = DetSanRecorder(keep_records=False)
    sim = Simulator(detsan=recorder)
    fabric = Fabric(sim, FatTreeTopology(_PIN_HOSTS, hosts_per_leaf=8,
                                         spines=2),
                    get_interconnect("infiniband_4x"), fault_plan=plan)
    rng = RandomStreams(2002).get("fabric.pin")

    def sender(start, src, dst, nbytes):
        yield sim.timeout(start)
        try:
            yield from fabric.transfer_ex(src, dst, nbytes)
        except (TransferDropped, NetworkUnreachable):
            pass

    for index in range(_PIN_TRANSFERS):
        src = int(rng.integers(_PIN_HOSTS))
        dst = (src + 1 + int(rng.integers(_PIN_HOSTS - 1))) % _PIN_HOSTS
        sim.process(sender(float(rng.uniform(0.0, 1e-3)), src, dst,
                           int(rng.integers(1, 65_536))),
                    name=f"t{index}")
    sim.run()
    return (recorder.digest, recorder.events_folded, sim.now,
            fabric.transfer_count)


class TestSchedulingStreamPinned:
    """The fabric's scheduling decisions, pinned as absolute values: a
    change to route choice, resource acquisition order or grant naming
    moves the digest even when timings agree."""

    def test_contended_fat_tree(self):
        assert _run_pinned_traffic(None) == (
            "7a0ecad7c3b7f8f6b8137148936e9c4553f705ab873d257b6c9d11005044dcf8",
            3228, 0.0013291451154015625, 300)

    def test_link_outage_and_blackhole(self):
        plan = _outage_plan()
        assert _run_pinned_traffic(plan) == (
            "183ccab95575e9e3d244b199685e1b47f9229af47f6ddcf46fa403f20df787d2",
            3221, 0.0014683558315381835, 293)
        assert (plan.reroutes, plan.drops) == (10, 7)

    def test_blackhole_and_random_loss_without_outages(self):
        plan = _loss_plan()
        assert _run_pinned_traffic(plan) == (
            "24991139badcead33e34d60cc9ddfa9a896b362da77611b8ced32affdcc67c71",
            3207, 0.0013291451154015625, 279)
        assert (plan.drops, plan.blackholes, plan.corruptions) == (21, 5, 16)


def _settled(result):
    """A message's outcome as a comparable value."""
    if isinstance(result, TransferOutcome):
        return result
    return (type(result).__name__, str(result))


class _PinnedMessage(Task):
    """One message of the pinned traffic, sent by callbacks: its start
    event sleeps until the send time, then hands the transfer to
    :meth:`Fabric.send`."""

    __slots__ = ("fabric", "index", "start", "src", "dst", "nbytes",
                 "outcomes")

    def __init__(self, fabric, outcomes, index, start, src, dst, nbytes):
        self.fabric = fabric
        self.outcomes = outcomes
        self.index = index
        self.start = start
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        super().__init__(fabric.sim, f"t{index}")

    def run(self):
        self.sim.timeout(self.start).add_callback(self._due)

    def _due(self, _event):
        self.fabric.send(self.src, self.dst, self.nbytes, self._done,
                         self.name)

    def _done(self, result):
        self.outcomes[self.index] = _settled(result)


def _drive_pinned_traffic(plan, callbacks):
    """Send the pinned traffic through one of the fabric's two drivers.

    Without ``callbacks`` each message is a process that sleeps until
    its send time and then runs ``transfer_ex``; with them it is a
    :class:`_PinnedMessage`.  Either way a message schedules one start
    event and one timeout, in the same order.  Returns the transfer
    records, the transfer count, the plan's counters and each message's
    outcome (compared), and the events delivered (reported apart).
    """
    sim = Simulator()
    fabric = Fabric(sim, FatTreeTopology(_PIN_HOSTS, hosts_per_leaf=8,
                                         spines=2),
                    get_interconnect("infiniband_4x"), fault_plan=plan,
                    record_transfers=True)
    rng = RandomStreams(2002).get("fabric.pin")
    outcomes = {}

    def sender(index, start, src, dst, nbytes):
        yield sim.timeout(start)
        try:
            result = yield from fabric.transfer_ex(src, dst, nbytes)
        except (TransferDropped, NetworkUnreachable) as lost:
            result = lost
        outcomes[index] = _settled(result)

    for index in range(_PIN_TRANSFERS):
        src = int(rng.integers(_PIN_HOSTS))
        dst = (src + 1 + int(rng.integers(_PIN_HOSTS - 1))) % _PIN_HOSTS
        start = float(rng.uniform(0.0, 1e-3))
        nbytes = int(rng.integers(1, 65_536))
        if callbacks:
            _PinnedMessage(fabric, outcomes, index, start, src, dst, nbytes)
        else:
            sim.process(sender(index, start, src, dst, nbytes),
                        name=f"t{index}")
    sim.run()
    counters = None
    if plan is not None:
        counters = (plan.drops, plan.blackholes, plan.reroutes,
                    plan.corruptions, plan.unreachable)
    seen = (tuple(fabric.records), fabric.transfer_count, counters,
            tuple(outcomes[index] for index in range(_PIN_TRANSFERS)))
    return seen, sim.events_executed


class TestTwoDriversOneTransfer:
    """``transfer_ex`` in processes and ``send`` from callbacks drive
    the same transfer object, so the same traffic gets the same records,
    counters and outcomes from both, on a clean fabric and under each
    of the pinned fault plans.  The digests pin what both saw, so a
    change to the shared request sequence (links requested in route
    order, say) fails here too."""

    DIGESTS = {
        "clean": (
            "0882c43855f0d5ffbfb0911e637583b66f235625da69ba63de6af3e302baf315",
            300),
        "outage_and_blackhole": (
            "4f9ce8cdeb89047fd25a2396feccd141891397d1b6a994790bee8e550d948943",
            293),
        "blackhole_and_random_loss": (
            "1fa039eb964468a8019e0a6497a4366df8660575aaec1bdef5e5afdad21bf465",
            279),
    }
    PLANS = {
        "clean": lambda: None,
        "outage_and_blackhole": _outage_plan,
        "blackhole_and_random_loss": _loss_plan,
    }

    @pytest.mark.parametrize("case", sorted(PLANS))
    def test_callback_driver_matches_generator_driver(self, case):
        generator, generator_events = _drive_pinned_traffic(
            self.PLANS[case](), callbacks=False)
        callback, callback_events = _drive_pinned_traffic(
            self.PLANS[case](), callbacks=True)
        assert callback == generator
        # A message sent by callbacks has no end event; nothing else
        # differs.
        assert generator_events - callback_events == _PIN_TRANSFERS
        records, transfers, counters, outcomes = generator
        text = "\n".join(repr(item) for item in
                         (*records, counters, *outcomes))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert (digest, transfers) == self.DIGESTS[case]


class TestStateBoundedByTopology:
    def test_memory_does_not_grow_with_distinct_pairs(self):
        """A fabric keeps nothing per (src, dst) pair it has carried:
        tripling the distinct pairs leaves what stays allocated after
        the run, fabric alive, all but unchanged."""
        hosts = 256
        rng = RandomStreams(22).get("fabric.pairs")
        pairs = []
        for code in rng.choice(hosts * (hosts - 1), size=6_000,
                               replace=False):
            src, offset = divmod(int(code), hosts - 1)
            pairs.append((src, (src + 1 + offset) % hosts))

        def retained(pairs):
            topology = FatTreeTopology(hosts)
            tracemalloc.start()
            try:
                sim = Simulator()
                fabric = Fabric(sim, topology,
                                get_interconnect("infiniband_4x"))

                def sender():
                    for src, dst in pairs:
                        yield from fabric.transfer_ex(src, dst, 64)

                sim.run_process(sender())
                assert fabric.transfer_count == len(pairs)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        retained(pairs[:10])   # warm-up: one-time allocations land here
        growth = retained(pairs) - retained(pairs[:2_000])
        assert growth < 256 * 1024
