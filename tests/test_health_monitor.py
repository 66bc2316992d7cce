"""Heartbeat monitor: detection through the fabric, with no oracle.

The load-bearing scenario is the false positive: a link outage silences
a healthy node's heartbeats and the monitor *wrongly* declares it dead,
because the monitor only knows what the fabric delivers.
"""

import math

import pytest

from repro.health import (
    DetectionSpec,
    HeartbeatMonitor,
    NodeHealthState,
)
from repro.network import Fabric, FabricFaultPlan, get_interconnect
from repro.sim import Simulator
from tests.conftest import small_fat_tree

HB = 1e-4


def make_monitor(plan=None, nodes=4, **spec_kwargs):
    """Monitor over the 4-host fat tree on gigabit ethernet."""
    sim = Simulator()
    fabric = Fabric(sim, small_fat_tree(),
                    get_interconnect("gigabit_ethernet"), fault_plan=plan)
    base = dict(detector="fixed", heartbeat_interval=HB,
                suspect_after=3 * HB, dead_after=6 * HB)
    base.update(spec_kwargs)
    monitor = HeartbeatMonitor(sim, fabric, nodes,
                               spec=DetectionSpec(**base))
    monitor.start()
    return sim, monitor


class TestHealthyOperation:
    def test_no_transitions_without_silence(self):
        sim, monitor = make_monitor()
        sim.run(until=5e-3)
        assert monitor.membership.epoch == 0
        assert monitor.heartbeats_sent > 0
        assert monitor.heartbeats_delivered > 0
        assert monitor.deaths == []
        assert math.isnan(monitor.mttd_seconds())

    def test_monitor_host_never_self_reports(self):
        """Node 0 is the monitor host; its self-heartbeats still count
        as delivered (zero-hop transfer)."""
        sim, monitor = make_monitor()
        sim.run(until=2e-3)
        assert monitor.membership.state_of(0) is NodeHealthState.HEALTHY

    def test_stop_quiesces(self):
        sim, monitor = make_monitor()
        sim.run(until=1e-3)
        monitor.stop()
        sim.run(until=sim.now)
        monitor.stop()  # idempotent on dead processes
        sent = monitor.heartbeats_sent
        sim.run(until=sim.now + 5e-3)
        assert monitor.heartbeats_sent == sent


class TestRealCrash:
    def test_crash_is_detected_within_the_timeout(self):
        sim, monitor = make_monitor()
        sim.run(until=2e-3)
        notice = monitor.death_notice()
        monitor.crash(2)
        assert monitor.crashed_nodes == (2,)
        sim.run(until=4e-3)
        assert notice.triggered
        deaths = monitor.pop_deaths()
        assert [d.node for d in deaths] == [2]
        record = deaths[0]
        assert not record.false_positive
        assert record.crashed_at == pytest.approx(2e-3)
        # Silence is measured from the last delivered heartbeat, and the
        # checker polls every half interval.
        assert 6 * HB - HB <= record.detect_seconds <= 6 * HB + 2 * HB
        assert monitor.membership.state_of(2) is NodeHealthState.DEAD
        assert monitor.pop_deaths() == []  # drained

    def test_suspicion_precedes_death(self):
        sim, monitor = make_monitor()
        sim.run(until=2e-3)
        monitor.crash(2)
        sim.run(until=4e-3)
        causes = [(e.node, e.old, e.new)
                  for e in monitor.membership.events if e.node == 2]
        assert causes == [
            (2, NodeHealthState.HEALTHY, NodeHealthState.SUSPECTED),
            (2, NodeHealthState.SUSPECTED, NodeHealthState.DEAD),
        ]
        # A real silence is not a false suspicion.
        assert monitor.false_suspicions == 0
        assert monitor.false_deaths == 0

    def test_repair_restore_cycle_resumes_heartbeats(self):
        sim, monitor = make_monitor()
        sim.run(until=2e-3)
        monitor.crash(2)
        sim.run(until=4e-3)
        monitor.pop_deaths()
        monitor.repair(2)
        assert (monitor.membership.state_of(2)
                is NodeHealthState.REPAIRING)
        sim.run(until=4.5e-3)
        monitor.restore(2)
        assert monitor.crashed_nodes == ()
        epoch = monitor.membership.epoch
        sim.run(until=8e-3)
        # Heartbeats resumed: no new suspicion of the restored node.
        assert monitor.membership.epoch == epoch
        assert monitor.membership.state_of(2) is NodeHealthState.HEALTHY

    def test_crash_is_idempotent(self):
        sim, monitor = make_monitor()
        sim.run(until=1e-3)
        monitor.crash(2)
        monitor.crash(2)
        sim.run(until=3e-3)
        assert len(monitor.deaths) == 1


class TestFalsePositives:
    def outage_plan(self, duration):
        """Sever host 1's only access link (h0,h1 share leaf s0)."""
        return FabricFaultPlan().link_down(("h", 1), ("s", 0),
                                           6e-4, 6e-4 + duration)

    def test_partition_causes_false_death(self):
        sim, monitor = make_monitor(plan=self.outage_plan(1e-3))
        sim.run(until=2e-3)
        deaths = monitor.pop_deaths()
        assert [d.node for d in deaths] == [1]
        assert deaths[0].false_positive
        assert math.isnan(deaths[0].detect_seconds)
        assert monitor.false_deaths == 1
        assert monitor.false_suspicions >= 1
        # Ground truth: nothing actually crashed.
        assert monitor.crashed_nodes == ()
        assert math.isnan(monitor.mttd_seconds())

    def test_falsely_declared_node_restores_with_live_sender(self):
        sim, monitor = make_monitor(plan=self.outage_plan(1e-3))
        sim.run(until=2e-3)
        monitor.pop_deaths()
        monitor.repair(1)
        monitor.restore(1)
        epoch = monitor.membership.epoch
        sim.run(until=5e-3)  # outage long over; heartbeats flow again
        assert monitor.membership.epoch == epoch
        assert monitor.membership.state_of(1) is NodeHealthState.HEALTHY

    def test_short_outage_only_suspects_then_refutes(self):
        sim, monitor = make_monitor(plan=self.outage_plan(4e-4),
                                    dead_after=8 * HB)
        sim.run(until=3e-3)
        assert monitor.deaths == []
        assert monitor.false_suspicions >= 1
        events = [(e.new, e.cause) for e in monitor.membership.events
                  if e.node == 1]
        assert (NodeHealthState.SUSPECTED, "missed-heartbeats") in events
        assert (NodeHealthState.HEALTHY, "heartbeat-resumed") in events
        assert monitor.membership.state_of(1) is NodeHealthState.HEALTHY

    def test_heartbeats_lost_counted(self):
        sim, monitor = make_monitor(plan=self.outage_plan(1e-3))
        sim.run(until=3e-3)
        assert monitor.heartbeats_lost > 0


class TestAdministrative:
    def test_drain_undrain(self):
        sim, monitor = make_monitor()
        sim.run(until=1e-3)
        monitor.drain(3)
        assert monitor.membership.state_of(3) is NodeHealthState.DRAINING
        assert monitor.membership.is_available(3)
        sim.run(until=2e-3)
        monitor.undrain(3)
        assert monitor.membership.state_of(3) is NodeHealthState.HEALTHY


class TestOutcome:
    def test_outcome_freezes_the_run(self):
        sim, monitor = make_monitor()
        sim.run(until=2e-3)
        monitor.crash(2)
        sim.run(until=4e-3)
        out = monitor.outcome()
        assert [d.node for d in out.detections] == [2]
        assert out.false_deaths == 0
        assert out.epoch == monitor.membership.epoch
        assert out.health_log == tuple(
            e.line() for e in monitor.membership.events)
        assert out.heartbeats_sent >= out.heartbeats_delivered
        assert 0.9 < out.availability <= 1.0


class TestValidation:
    def test_constructor_guards(self):
        sim = Simulator()
        fabric = Fabric(sim, small_fat_tree(),
                        get_interconnect("gigabit_ethernet"))
        with pytest.raises(ValueError):
            HeartbeatMonitor(sim, fabric, 0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(sim, fabric, 5)  # only 4 hosts
        with pytest.raises(ValueError):
            HeartbeatMonitor(sim, fabric, 4,
                             spec=DetectionSpec(monitor_host=4))

    def test_double_start_raises(self):
        sim, monitor = make_monitor()
        with pytest.raises(RuntimeError):
            monitor.start()

    def test_spec_validation_and_defaults(self):
        with pytest.raises(ValueError):
            DetectionSpec(detector="psychic")
        with pytest.raises(ValueError):
            DetectionSpec(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            DetectionSpec(dead_after=-1.0)
        spec = DetectionSpec(heartbeat_interval=2e-4)
        assert spec.effective_suspect_after == pytest.approx(6e-4)
        assert spec.effective_dead_after == pytest.approx(16e-4)

    def test_build_detector_dispatch(self):
        from repro.health import FixedTimeoutDetector, PhiAccrualDetector
        assert isinstance(DetectionSpec(detector="fixed").build_detector(),
                          FixedTimeoutDetector)
        assert isinstance(DetectionSpec(detector="phi").build_detector(),
                          PhiAccrualDetector)
