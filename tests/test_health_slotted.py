"""The slot driver: one timer wheel for the whole fleet.

Every monitor schedules its periodic work through one driver process
that walks S phase slots per interval and runs the beat (or probe
round) of every live node in each slot.  ``DetectionSpec.heartbeat_slots``
sets S; unset, each node gets its own slot.  Sharing slots is an
engine-load optimisation, not a semantic change — these tests pin the
equivalence: the same detections with a few shared slots as with one
slot per node, deterministic across runs, correct crash/restore
behaviour (a restored node rejoins its own slot of the cycle that began
at ``start()``), and strictly fewer engine events at fleet scale.
"""

import pytest

from repro.health import (
    DetectionSpec,
    GossipMonitor,
    HeartbeatMonitor,
    NodeHealthState,
)
from repro.network import Fabric, FabricFaultPlan, get_interconnect
from repro.sim import RandomStreams, Simulator
from tests.conftest import small_fat_tree

HB = 1e-4


def make_monitor(plan=None, nodes=4, topology=None, **spec_kwargs):
    """Monitor over a fat tree on gigabit ethernet; pass
    ``heartbeat_slots`` to share slots between nodes."""
    sim = Simulator()
    fabric = Fabric(sim, topology or small_fat_tree(),
                    get_interconnect("gigabit_ethernet"), fault_plan=plan)
    base = dict(detector="fixed", heartbeat_interval=HB,
                suspect_after=3 * HB, dead_after=6 * HB)
    base.update(spec_kwargs)
    monitor = HeartbeatMonitor(sim, fabric, nodes,
                               spec=DetectionSpec(**base))
    monitor.start()
    return sim, monitor


def _campaign(monitor_factory):
    """Crash node 2 mid-run, then restore it; return the observable
    record (deaths, membership log, beat counters, final clock)."""
    sim, monitor = monitor_factory()
    sim.run(until=2e-3)
    monitor.crash(2)
    sim.run(until=4e-3)
    monitor.repair(2)
    monitor.restore(2)
    sim.run(until=6e-3)
    return {
        "deaths": [(d.node, d.false_positive) for d in monitor.deaths],
        "log": [e.line() for e in monitor.membership.events],
        "sent": monitor.heartbeats_sent,
        "delivered": monitor.heartbeats_delivered,
        "state2": monitor.membership.state_of(2),
        "now": sim.now,
    }


class TestSpecValidation:
    def test_zero_or_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            DetectionSpec(heartbeat_slots=0)
        with pytest.raises(ValueError):
            DetectionSpec(heartbeat_slots=-3)

    def test_none_and_positive_slots_accepted(self):
        assert DetectionSpec().heartbeat_slots is None
        assert DetectionSpec(heartbeat_slots=1).heartbeat_slots == 1
        assert DetectionSpec(heartbeat_slots=16).heartbeat_slots == 16


class TestDetectionEquivalence:
    def test_crash_detected_like_one_slot_per_node(self):
        slotted = _campaign(lambda: make_monitor(heartbeat_slots=2))
        per_node = _campaign(lambda: make_monitor())
        assert slotted["deaths"] == per_node["deaths"] == [(2, False)]
        assert slotted["state2"] is NodeHealthState.HEALTHY

    def test_false_positive_under_partition(self):
        """A severed access link silences node 1's beats with shared
        slots exactly as with one slot per node: a false death."""
        plan = FabricFaultPlan().link_down(("h", 1), ("s", 0),
                                           6e-4, 6e-4 + 1e-3)
        sim, monitor = make_monitor(plan=plan, heartbeat_slots=2)
        sim.run(until=2e-3)
        deaths = monitor.pop_deaths()
        assert [d.node for d in deaths] == [1]
        assert deaths[0].false_positive
        assert monitor.crashed_nodes == ()

    def test_single_slot_degenerates_to_bursts(self):
        """slots=1 fires the whole fleet once per interval; detection
        still works."""
        record = _campaign(lambda: make_monitor(heartbeat_slots=1))
        assert record["deaths"] == [(2, False)]


class TestDeterminism:
    def test_same_seed_double_run_identical(self):
        first = _campaign(lambda: make_monitor(heartbeat_slots=4))
        second = _campaign(lambda: make_monitor(heartbeat_slots=4))
        assert first == second

    def test_membership_transitions_match_one_slot_per_node(self):
        """The health state machine sees the same transition sequence
        for the crashed node, however many slots the beats share.
        (Timestamps may shift inside one interval because shared slot
        phases differ from the per-node phases.)"""
        transitions = {}
        for slots in (None, 2):
            sim, monitor = make_monitor(heartbeat_slots=slots)
            sim.run(until=2e-3)
            monitor.crash(2)
            sim.run(until=4e-3)
            transitions[slots] = [(e.node, e.old, e.new)
                                  for e in monitor.membership.events]
        assert transitions[2] == transitions[None] == [
            (2, NodeHealthState.HEALTHY, NodeHealthState.SUSPECTED),
            (2, NodeHealthState.SUSPECTED, NodeHealthState.DEAD),
        ]


class TestCrashRestore:
    def test_crashed_node_stops_beating(self):
        sim, monitor = make_monitor(heartbeat_slots=2)
        sim.run(until=1e-3)
        monitor.crash(2)
        sim.run(until=4e-3)
        assert monitor.membership.state_of(2) is NodeHealthState.DEAD
        # And stays dead: no phantom beats from the slot driver.
        sim.run(until=8e-3)
        assert monitor.membership.state_of(2) is NodeHealthState.DEAD

    def test_restore_rejoins_the_wheel(self):
        sim, monitor = make_monitor(heartbeat_slots=2)
        sim.run(until=2e-3)
        monitor.crash(2)
        sim.run(until=4e-3)
        monitor.pop_deaths()
        monitor.repair(2)
        monitor.restore(2)
        epoch = monitor.membership.epoch
        sim.run(until=8e-3)
        # Beats resumed from the shared driver: no new suspicion.
        assert monitor.membership.epoch == epoch
        assert monitor.membership.state_of(2) is NodeHealthState.HEALTHY

    def test_stop_quiesces_the_driver(self):
        sim, monitor = make_monitor(heartbeat_slots=2)
        sim.run(until=1e-3)
        monitor.stop()
        sent = monitor.heartbeats_sent
        sim.run(until=sim.now + 5e-3)
        assert monitor.heartbeats_sent == sent


class TestEngineLoad:
    def test_slotted_mode_schedules_fewer_events(self):
        """At fleet scale 8 shared slots beat one slot per node:
        strictly fewer engine events for the same horizon."""
        from repro.network import FatTreeTopology
        counts = {}
        for slots in (None, 8):
            # Wider timeouts: 60 nodes funnel beats into one monitor
            # link, so delivery latency is higher than at 4 nodes.
            sim, monitor = make_monitor(nodes=60,
                                        topology=FatTreeTopology(60),
                                        heartbeat_slots=slots,
                                        suspect_after=15 * HB,
                                        dead_after=30 * HB)
            sim.run(until=5e-3)
            counts[slots] = sim.events_executed
            assert monitor.deaths == []
        assert counts[8] < counts[None]

    def test_beat_counters_comparable_to_one_slot_per_node(self):
        """Both slot counts send roughly interval-rate beats per node."""
        sent = {}
        for slots in (None, 4):
            sim, monitor = make_monitor(heartbeat_slots=slots)
            sim.run(until=5e-3)
            sent[slots] = monitor.heartbeats_sent
        # 4 nodes x ~50 intervals; allow one interval of phase slack.
        assert sent[4] == pytest.approx(sent[None], rel=0.1)


class TestRestoreRejoinsOwnSlot:
    """A restored node's periodic work lands on its own slot of the cycle
    that began at ``start()``: with one slot per node, node ``n`` of 4
    acts at ``k * interval + interval * (n + 1) / 5`` for every cycle
    ``k``, whenever it was restored.  The restores here come 40.37
    intervals after the start, off that grid, so a rule that restarted
    the node's phase at the restore instant would move every later time
    by 0.37 of an interval."""

    def test_restored_heartbeats_land_on_the_start_grid(self):
        sim = Simulator()
        fabric = Fabric(sim, small_fat_tree(),
                        get_interconnect("gigabit_ethernet"),
                        record_transfers=True)
        monitor = HeartbeatMonitor(sim, fabric, 4, spec=DetectionSpec(
            detector="fixed", heartbeat_interval=HB,
            suspect_after=3 * HB, dead_after=6 * HB))
        monitor.start()
        sim.run(until=2e-3)
        monitor.crash(2)
        sim.run(until=4.037e-3)
        assert monitor.membership.state_of(2) is NodeHealthState.DEAD
        monitor.repair(2)
        monitor.restore(2)
        sim.run(until=4.6e-3)
        starts = [r.start for r in fabric.records
                  if r.src == 2 and r.start > 4.037e-3]
        # Node 2 beats at 4,060 us, 4,160 us, ... and at no other time.
        assert len(starts) >= 4
        assert starts == pytest.approx(
            [k * HB + 3 * HB / 5 for k in range(40, 40 + len(starts))],
            rel=0, abs=1e-12)

    def test_restored_gossip_probes_land_on_the_start_grid(self):
        period = 1e-3
        sim = Simulator()
        fabric = Fabric(sim, small_fat_tree(),
                        get_interconnect("gigabit_ethernet"),
                        record_transfers=True)
        monitor = GossipMonitor(sim, fabric, 4, spec=DetectionSpec(
            detector="gossip", heartbeat_interval=period,
            suspect_after=3 * period, dead_after=6 * period),
            streams=RandomStreams(3))
        monitor.start()
        sim.run(until=20e-3)
        monitor.crash(2)
        sim.run(until=40.37e-3)
        assert monitor.membership.state_of(2) is NodeHealthState.DEAD
        monitor.repair(2)
        monitor.restore(2)
        sim.run(until=45e-3)
        # Node 2 also acks and relays for its peers; its own pings start
        # at 40.6 ms, 41.6 ms, ...
        starts = [r.start for r in fabric.records
                  if r.src == 2 and r.start > 40.37e-3]
        for cycle in range(40, 44):
            expected = cycle * period + 3 * period / 5
            assert any(start == pytest.approx(expected, rel=0, abs=1e-12)
                       for start in starts), (expected, starts)
