"""Rank failures during communication: what the messaging layer does
when the fault injector reaches into an SPMD program.

2002 MPI semantics: a dead rank takes the job with it (MPI_ABORT); there
is no fault-tolerant MPI here, and these tests pin down that the failure
is *visible and attributable* rather than silently hung — the property
the fault-recovery layer above (checkpoint restart of whole jobs) relies
on.
"""

import numpy as np

from repro.fault import ExponentialFailures, FaultInjector
from repro.messaging import SUM, make_world
from repro.sim import Interrupt


def spawn_ranks(world, body):
    processes = []
    for rank in range(world.size):
        process = world.sim.process(body(world.communicator(rank)),
                                    name=f"rank{rank}")
        process.defused = True
        processes.append(process)
    return processes


class TestRankDeath:
    def test_death_mid_collective_strands_peers(self):
        """Killing one rank inside a barrier leaves the others blocked
        (never silently 'completing' the collective) and the victim's
        failure is an attributable Interrupt."""
        world = make_world(4)
        sim = world.sim

        def body(comm):
            yield from comm.barrier()
            yield from comm.barrier()  # victim dies before this completes
            return "done"

        processes = spawn_ranks(world, body)

        def assassin(sim, victim):
            yield sim.timeout(1e-5)
            victim.interrupt(("failure", 0))

        sim.process(assassin(sim, processes[2]))
        sim.run()

        assert processes[2].triggered and not processes[2].ok
        assert isinstance(processes[2].value, Interrupt)
        survivors = [p for i, p in enumerate(processes) if i != 2]
        assert all(not p.triggered for p in survivors)  # stranded, loudly

    def test_death_before_send_strands_receiver(self):
        world = make_world(2)
        sim = world.sim

        def sender(comm):
            yield comm.sim.timeout(1.0)
            yield from comm.send("late", 1)
            return "sent"

        def receiver(comm):
            payload = yield from comm.recv(0)
            return payload

        send_proc = sim.process(sender(world.communicator(0)))
        send_proc.defused = True
        recv_proc = sim.process(receiver(world.communicator(1)))
        recv_proc.defused = True

        def assassin(sim, victim):
            yield sim.timeout(0.5)
            victim.interrupt("node died")

        sim.process(assassin(sim, send_proc))
        sim.run()
        assert not send_proc.ok
        assert not recv_proc.triggered

    def test_rank_catching_interrupt_can_finish_cleanly(self):
        """A rank that handles the interrupt (an FT-aware application)
        can wind down without corrupting its peers' state."""
        world = make_world(2)
        sim = world.sim

        def resilient(comm):
            try:
                yield comm.sim.timeout(10.0)
            except Interrupt as interrupt:
                # Tell the peer we are bailing out instead of vanishing.
                yield from comm.send(("abort", interrupt.cause), 1, tag=99)
                return "bailed"
            return "normal"

        def peer(comm):
            message = yield from comm.recv(0, tag=99)
            return message

        resilient_proc = sim.process(resilient(world.communicator(0)))
        resilient_proc.defused = True
        peer_proc = sim.process(peer(world.communicator(1)))
        peer_proc.defused = True

        def assassin(sim, victim):
            yield sim.timeout(1.0)
            victim.interrupt("failure-7")

        sim.process(assassin(sim, resilient_proc))
        sim.run()
        assert resilient_proc.value == "bailed"
        assert peer_proc.value == ("abort", "failure-7")

    def test_injector_driven_death_during_allreduce(self, streams):
        """The generic FaultInjector composes with SPMD ranks: with a
        hostile MTBF the victim dies inside the collective machinery and
        the failure carries the injector's cause."""
        world = make_world(4)
        sim = world.sim

        def body(comm):
            total = 0.0
            for _ in range(200):
                total = yield from comm.allreduce(
                    np.ones(64) * comm.rank, SUM)
            return total

        processes = spawn_ranks(world, body)
        injector = FaultInjector(sim, ExponentialFailures(5e-4),
                                 streams.get("kill"))
        injector.attach(processes[1])
        sim.run()
        assert injector.failures_injected >= 1
        assert not processes[1].ok
        assert isinstance(processes[1].value, Interrupt)
        assert processes[1].value.cause[0] == "failure"
