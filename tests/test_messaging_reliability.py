"""Fault-tolerant messaging: reliable delivery, timeouts, RankFailure."""

import pytest

from repro.messaging import (
    CommConfig,
    CommTimeout,
    RankFailure,
)
from repro.messaging.comm import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    BACKOFF_FACTOR,
    JITTER,
)
from repro.messaging.program import make_world
from repro.network import FabricFaultPlan
from repro.sim import Interrupt, RandomStreams
from tests.conftest import RING
from tests.conftest import drive_ring_exchange as run_ring_exchange
from tests.conftest import make_ring_world as ring_world


class TestReliableDelivery:
    def test_exact_delivery_under_heavy_loss(self):
        world = ring_world(drop=0.4, seed=3, reliable=True)
        got = run_ring_exchange(world, rounds=3)
        for rank in range(RING):
            assert got[rank] == [(r, (rank - 1) % RING) for r in range(3)]
        assert world.stats.retries > 0
        # Lost acks force retransmits of already-delivered messages;
        # the dedup table absorbs them without duplicating payloads.
        assert world.stats.duplicates > 0
        assert world.stats.delivery_failures == 0

    def test_lossless_reliable_sends_one_ack_per_message(self):
        world = ring_world(reliable=True)
        run_ring_exchange(world, rounds=2)
        assert world.stats.acks == RING * 2
        assert world.stats.retries == 0
        assert world.stats.duplicates == 0

    def test_same_seed_reproduces_stats_exactly(self):
        first = ring_world(drop=0.4, seed=3, reliable=True)
        second = ring_world(drop=0.4, seed=3, reliable=True)
        run_ring_exchange(first, rounds=3)
        run_ring_exchange(second, rounds=3)
        assert first.stats.snapshot() == second.stats.snapshot()
        assert first.sim.now == second.sim.now

    def test_retry_budget_exhaustion_is_counted(self):
        """With 100% loss nothing ever arrives: every send burns its
        retry budget and records a delivery failure."""
        streams = RandomStreams(0)
        plan = FabricFaultPlan(drop_probability=1.0,
                               rng=streams.get("net.loss"))
        config = CommConfig(reliable=True, max_retries=2)
        world = make_world(2, config=config, streams=streams,
                           fault_plan=plan)
        comm = world.communicator(0)

        def body():
            yield from comm.send("doomed", 1, tag=0)

        world.sim.process(body())
        world.sim.run()
        assert world.stats.delivery_failures == 1
        assert world.stats.retries == 2


class TestBackoff:
    def test_deterministic_and_bounded(self):
        """Same streams, same jittered backoffs, each within
        ``[b, (1 + JITTER) * b]`` of its unjittered value ``b`` -- the
        capped attempts (13 on) included."""
        config = CommConfig(reliable=True)
        one = make_world(2, config=config, streams=RandomStreams(5))
        two = make_world(2, config=config, streams=RandomStreams(5))
        seq_one = [one.retry_backoff(a) for a in range(1, 16)]
        seq_two = [two.retry_backoff(a) for a in range(1, 16)]
        assert seq_one == seq_two
        for attempt, backoff in enumerate(seq_one, start=1):
            base = min(BACKOFF_CAP,
                       BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))
            assert base <= backoff <= base * (1.0 + JITTER)

    def test_no_streams_means_no_jitter(self):
        world = make_world(2, config=CommConfig(reliable=True))
        assert world.retry_backoff(1) == BACKOFF_BASE
        assert world.retry_backoff(4) == BACKOFF_BASE * BACKOFF_FACTOR ** 3
        # The cap is first reached at attempt 13.
        assert world.retry_backoff(12) < BACKOFF_CAP
        assert world.retry_backoff(13) == BACKOFF_CAP

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CommConfig(max_retries=-1)

    def test_default_config_is_inactive(self):
        assert not CommConfig().active
        assert CommConfig(reliable=True).active
        assert CommConfig(fault_aware=True).active


class TestTimeouts:
    def test_recv_timeout_raises(self):
        world = make_world(2)
        comm = world.communicator(0)
        outcome = {}

        def body():
            try:
                yield from comm.recv(1, 0, timeout=1e-3)
            except CommTimeout:
                outcome["raised_at"] = world.sim.now

        world.sim.process(body())
        world.sim.run()
        assert outcome["raised_at"] == pytest.approx(1e-3)
        assert world.stats.op_timeouts == 1


class TestRankFailures:
    def fault_aware_world(self):
        return make_world(RING, config=CommConfig(fault_aware=True),
                          streams=RandomStreams(0))

    def test_blocked_recv_raises_on_peer_death(self):
        world = self.fault_aware_world()
        outcome = {}

        def receiver():
            comm = world.communicator(0)
            try:
                yield from comm.recv(1, 0)
            except RankFailure as failure:
                outcome["ranks"] = failure.ranks
                outcome["time"] = world.sim.now

        def reaper():
            yield world.sim.timeout(1e-4)
            world.fail_rank(1)

        world.sim.process(receiver())
        world.sim.process(reaper())
        world.sim.run()
        assert outcome["ranks"] == frozenset({1})
        assert outcome["time"] == pytest.approx(1e-4)

    def test_queued_predeath_message_still_deliverable(self):
        world = self.fault_aware_world()
        outcome = {}

        def sender():
            comm = world.communicator(1)
            yield from comm.send("last words", 0, tag=7)

        def reaper():
            yield world.sim.timeout(1e-2)  # after delivery completes
            world.fail_rank(1)

        def receiver():
            comm = world.communicator(0)
            yield world.sim.timeout(2e-2)  # recv only after the death
            outcome["payload"] = yield from comm.recv(1, 7)

        world.sim.process(sender())
        world.sim.process(reaper())
        world.sim.process(receiver())
        world.sim.run()
        assert outcome["payload"] == "last words"

    def test_send_to_dead_peer_raises(self):
        world = self.fault_aware_world()
        world.fail_rank(1)
        outcome = {}

        def body():
            comm = world.communicator(0)
            try:
                yield from comm.send("x", 1)
            except RankFailure as failure:
                outcome["ranks"] = failure.ranks

        world.sim.process(body())
        world.sim.run()
        assert outcome["ranks"] == frozenset({1})

    def test_collective_fails_fast_instead_of_hanging(self):
        world = self.fault_aware_world()
        outcome = {}

        def survivor(rank):
            comm = world.communicator(rank)
            yield world.sim.timeout(1e-3)  # rank 2 is already dead
            try:
                yield from comm.barrier()
            except RankFailure as failure:
                outcome[rank] = failure.ranks

        def reaper():
            yield world.sim.timeout(1e-4)
            world.fail_rank(2)

        for rank in (0, 1, 3):
            world.sim.process(survivor(rank))
        world.sim.process(reaper())
        world.sim.run()
        assert outcome == {0: frozenset({2}),
                           1: frozenset({2}),
                           3: frozenset({2})}

    def test_fail_rank_bookkeeping(self):
        world = self.fault_aware_world()
        with pytest.raises(IndexError):
            world.fail_rank(99)
        world.fail_rank(1)
        world.fail_rank(1)  # idempotent
        assert world.failed == {1}

    def test_notice_keeps_only_the_waits_still_open(self):
        """A fault-aware receive that has to wait listens to the world's
        failure notice.  Once its wait fires it stops listening, whether
        the receive took the message or an interrupt had abandoned it;
        only a wait that has not fired stays on the notice."""
        world = self.fault_aware_world()
        sim = world.sim
        outcome = {}

        def abandoned():
            try:
                yield from world.communicator(0).recv(1, tag=99)
            except Interrupt:
                outcome["abandoned"] = sim.now

        def late_sender():
            yield sim.timeout(2e-4)  # after the interrupt
            yield from world.communicator(1).send("late", 0, tag=99)

        def still_open():
            try:
                yield from world.communicator(2).recv(3, tag=77)
            except RankFailure as failure:
                outcome["open"] = failure.ranks

        victim = sim.process(abandoned())
        sim.process(late_sender())
        sim.process(still_open())
        sim.run(until=1e-4)
        victim.interrupt()
        # Four ranks exchange 25 rounds: a hundred receives, most of
        # which wait; the queue then drains.
        got = run_ring_exchange(world, rounds=25)
        assert all(len(payloads) == 25 for payloads in got.values())
        assert outcome == {"abandoned": 1e-4}
        notice = world.failure_notice()
        assert len(notice._callbacks) == 1
        world.fail_rank(3)
        sim.run()
        assert outcome["open"] == frozenset({3})
