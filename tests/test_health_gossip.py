"""SWIM gossip membership: decentralized detection through the fabric.

The load-bearing property is the same as the central monitor's — no
oracle — plus SWIM's own contract: suspicion precedes death, a live
suspect *refutes* by incarnation bump, and same-seed runs are
byte-identical down to the DetSan event digest.

Gossip physics note: every test runs a 1 ms protocol period.  The
gigabit-ethernet fat tree's one-way latency is ~50 us, so a ping+ack
round trip fits comfortably inside the probe timeout (period / 3); at
the central monitor's 0.1 ms period it would not, and every probe
would time out (see DESIGN.md).
"""

import math

import pytest

from repro.fault import DetectorDrivenSparePool
from repro.health import (
    DetectionSpec,
    GossipMonitor,
    GossipStatus,
    HeartbeatMonitor,
    NodeHealthState,
    build_monitor,
)
from repro.health.gossip import K_INDIRECT
from repro.network import (
    Fabric,
    FabricFaultPlan,
    FatTreeTopology,
    get_interconnect,
)
from repro.obs import Observability, chrome_trace_json
from repro.sim import RandomStreams, Simulator
from repro.sim.detsan import DetSanRecorder

HB = 1e-3
NODES = 8


def make_gossip(plan=None, nodes=NODES, seed=3, obs=None, detsan=None,
                **spec_kwargs):
    """Gossip monitor over an ``nodes``-host fat tree on gigabit
    ethernet, started."""
    sim = Simulator(obs=obs, detsan=detsan)
    fabric = Fabric(sim, FatTreeTopology(nodes),
                    get_interconnect("gigabit_ethernet"), fault_plan=plan)
    base = dict(detector="gossip", heartbeat_interval=HB,
                suspect_after=3 * HB, dead_after=6 * HB)
    base.update(spec_kwargs)
    monitor = GossipMonitor(sim, fabric, nodes,
                            spec=DetectionSpec(**base),
                            streams=RandomStreams(seed))
    monitor.start()
    return sim, monitor


def access_link(nodes, host):
    """The host's first hop — its only way in or out of the tree."""
    return FatTreeTopology(nodes).route(host, (host + 1) % nodes)[0]


class TestHealthyOperation:
    def test_no_noise_without_faults(self):
        """Randomized probing manufactures neither suspicion nor death."""
        sim, monitor = make_gossip()
        sim.run(until=20 * HB)
        stats = monitor.gossip_stats()
        assert stats.probes > 0
        assert stats.messages_delivered > 0
        assert stats.suspicions == 0
        assert monitor.false_suspicions == 0
        assert monitor.deaths == []
        assert monitor.membership.epoch == 0
        assert math.isnan(monitor.mttd_seconds())

    def test_every_node_carries_load(self):
        """O(1) per node: every member probes, none is a hotspot."""
        sim, monitor = make_gossip()
        sim.run(until=20 * HB)
        stats = monitor.gossip_stats()
        assert all(b > 0 for b in monitor.bytes_sent_by)
        assert (stats.max_node_bytes_sent
                <= 5 * stats.mean_node_bytes_sent)

    def test_stop_quiesces(self):
        sim, monitor = make_gossip()
        sim.run(until=5 * HB)
        monitor.stop()
        monitor.stop()  # idempotent
        sent = monitor.gossip_stats().messages_sent
        sim.run(until=sim.now + 10 * HB)
        assert monitor.gossip_stats().messages_sent == sent


class TestCrashLifecycle:
    def test_crash_is_detected_via_suspicion(self):
        sim, monitor = make_gossip()
        sim.run(until=2 * HB)
        notice = monitor.death_notice()
        monitor.crash(5)
        sim.run(until=20 * HB)
        assert notice.triggered
        deaths = monitor.pop_deaths()
        assert [d.node for d in deaths] == [5]
        assert not deaths[0].false_positive
        assert deaths[0].detect_seconds > 0
        # SWIM's two-step verdict is visible in the canonical log:
        # someone suspected 5, then someone (possibly else) buried it.
        log = monitor.membership.render_log()
        assert "gossip-suspect-by-" in log
        assert "gossip-dead-by-" in log
        stats = monitor.gossip_stats()
        assert stats.suspicions >= 1
        assert stats.probe_timeouts >= 1

    def test_indirect_probes_are_tried_before_suspicion(self):
        """A timed-out direct probe fans out to k relays."""
        sim, monitor = make_gossip()
        sim.run(until=2 * HB)
        monitor.crash(5)
        sim.run(until=20 * HB)
        stats = monitor.gossip_stats()
        assert stats.indirect_probes >= K_INDIRECT

    def test_dead_nodes_stop_being_probed(self):
        """Once the fleet believes 5 is dead, nobody wastes probes on
        it — detector load tracks the live membership."""
        sim, monitor = make_gossip()
        sim.run(until=2 * HB)
        monitor.crash(5)
        sim.run(until=20 * HB)
        timeouts_at_burial = monitor.gossip_stats().probe_timeouts
        sim.run(until=40 * HB)
        assert (monitor.gossip_stats().probe_timeouts
                <= timeouts_at_burial)


class TestRefutation:
    def make_partitioned(self, victim=7, start=3 * HB, end=7 * HB):
        """Symmetric outage on the victim's access link, healing well
        inside the suspicion window."""
        plan = FabricFaultPlan()
        a, b = access_link(NODES, victim)
        plan.link_down(a, b, start, end)
        return make_gossip(plan=plan)

    def test_false_suspicion_is_refuted_on_heal(self):
        sim, monitor = self.make_partitioned()
        sim.run(until=25 * HB)
        stats = monitor.gossip_stats()
        # The outage was real, so suspicion was *honest*…
        assert monitor.false_suspicions >= 1
        assert stats.suspicions >= 1
        # …and the heal landed before any timer expired: the suspects
        # bumped their incarnation and everyone walked it back.
        assert stats.refutations >= 1
        assert monitor.deaths == []
        assert "gossip-refuted" in monitor.membership.render_log()
        for node in range(NODES):
            assert (monitor.membership.state_of(node)
                    is NodeHealthState.HEALTHY)

    def test_refutation_outranks_stale_suspicion(self):
        """After the refutation the fleet holds the *new* incarnation:
        replaying the run longer never resurrects the stale rumor."""
        sim, monitor = self.make_partitioned()
        sim.run(until=25 * HB)
        suspicions = monitor.gossip_stats().suspicions
        sim.run(until=50 * HB)
        assert monitor.gossip_stats().suspicions == suspicions
        assert monitor.deaths == []


class TestRestore:
    def test_restored_node_rejoins_with_higher_incarnation(self):
        sim, monitor = make_gossip()
        sim.run(until=2 * HB)
        monitor.crash(5)
        sim.run(until=15 * HB)
        assert [d.node for d in monitor.deaths] == [5]
        assert monitor.membership.state_of(5) is NodeHealthState.DEAD
        bytes_before = monitor.bytes_sent_by[5]
        monitor.repair(5)
        monitor.restore(5)
        assert monitor.membership.state_of(5) is NodeHealthState.HEALTHY
        sim.run(until=40 * HB)
        # The rebooted node probes again and nobody re-buries it: its
        # rejoin incarnation outranks every pre-crash rumor.
        assert monitor.bytes_sent_by[5] > bytes_before
        assert [d.node for d in monitor.deaths] == [5]
        for node in range(NODES):
            assert monitor.membership.is_available(node)


class TestDeterminism:
    def run_once(self, seed=11, slots=None):
        """One faulted campaign with full instrumentation: crash plus a
        healed partition, every replay channel captured."""
        obs = Observability()
        detsan = DetSanRecorder()
        plan = FabricFaultPlan()
        a, b = access_link(NODES, 6)
        plan.link_down(a, b, 3 * HB, 7 * HB)
        sim, monitor = make_gossip(plan=plan, seed=seed, obs=obs,
                                   detsan=detsan, heartbeat_slots=slots)
        sim.run(until=2 * HB)
        monitor.crash(3)
        sim.run(until=25 * HB)
        return {
            "log": monitor.membership.render_log(),
            "stats": monitor.gossip_stats(),
            "deaths": [(d.node, d.declared_at) for d in monitor.deaths],
            "trace": chrome_trace_json(obs),
            "digest": detsan.digest,
        }

    def test_same_seed_runs_are_byte_identical(self):
        first, second = self.run_once(), self.run_once()
        assert first["log"] == second["log"]
        assert first["stats"] == second["stats"]
        assert first["deaths"] == second["deaths"]
        assert first["trace"] == second["trace"]
        assert first["digest"] == second["digest"]

    def test_slotted_mode_is_deterministic_too(self):
        first, second = self.run_once(slots=4), self.run_once(slots=4)
        assert first["log"] == second["log"]
        assert first["digest"] == second["digest"]

    def test_seed_changes_the_probe_order_not_the_verdict(self):
        first, other = self.run_once(seed=11), self.run_once(seed=12)
        assert [n for n, _ in first["deaths"]] == [3]
        assert [n for n, _ in other["deaths"]] == [3]
        assert first["digest"] != other["digest"]


class TestSparePool:
    def test_gossip_verdicts_drive_spares(self):
        """The availability layer consumes gossip DeathRecords exactly
        as it consumes the central monitor's."""
        sim, monitor = make_gossip()
        pool = DetectorDrivenSparePool((100, 101))
        sim.run(until=2 * HB)
        monitor.crash(5)
        sim.run(until=20 * HB)
        record = monitor.pop_deaths()[0]
        assert pool.activate(record) == 100
        assert pool.activations == 1
        assert pool.false_activations == 0

    def test_ground_truth_cannot_activate(self):
        pool = DetectorDrivenSparePool((100,))
        with pytest.raises(TypeError):
            pool.activate("node 5 looked dead to me")


class TestFactoryAndSpec:
    def test_build_monitor_dispatches_on_detector(self):
        sim = Simulator()
        fabric = Fabric(sim, FatTreeTopology(4),
                        get_interconnect("gigabit_ethernet"))
        gossip = build_monitor(sim, fabric, 4,
                               spec=DetectionSpec(detector="gossip"))
        central = build_monitor(sim, fabric, 4,
                                spec=DetectionSpec(detector="fixed"))
        assert isinstance(gossip, GossipMonitor)
        assert isinstance(central, HeartbeatMonitor)
        assert not isinstance(central, GossipMonitor)

    def test_gossip_monitor_rejects_central_specs(self):
        sim = Simulator()
        fabric = Fabric(sim, FatTreeTopology(4),
                        get_interconnect("gigabit_ethernet"))
        with pytest.raises(ValueError, match="gossip"):
            GossipMonitor(sim, fabric, 4,
                          spec=DetectionSpec(detector="phi"))

    def test_status_precedence_is_graver_wins(self):
        """Serf precedence: at equal incarnation, DEAD > SUSPECT >
        ALIVE — the ordering the merge rule leans on."""
        assert GossipStatus.DEAD > GossipStatus.SUSPECT > GossipStatus.ALIVE
