"""The failure detectors' event streams at scale, pinned as absolute values.

Two scaled-down ``detect_scale`` shapes on an InfiniBand fat tree, each
with two crashes and both directions of host 0's access link blackholed
from mid-run: a central fixed-timeout monitor on 256 nodes sharing 16
heartbeat slots, and SWIM gossip on 128 nodes.  Each runs twice:

* under :class:`~repro.sim.detsan.DetSanRecorder`, pinning the digest of
  every scheduling decision and the number of events folded;
* in plain mode, where the engine runs its inlined fast loop and
  recycles timeouts through the shared pool, pinning the number of
  events delivered.

DetSan forces the instrumented dispatch loop, so only the second run
covers the fast loop that long detector runs spend their time in.  Both
runs also pin the final clock, the fabric's transfer count, the fault
plan's drop and blackhole counters and a SHA-256 of the membership log
(``SHARED``).

The stream pins moved once, when heartbeats, probe rounds and their
legs became callback tasks instead of processes: each message kept its
start event and lost its end event (central 28,514 -> 25,463 events,
gossip 32,746 -> 29,646).  ``SHARED`` did not move.
"""

import hashlib

from repro.health import DetectionSpec, build_monitor
from repro.network import (
    Fabric,
    FabricFaultPlan,
    FatTreeTopology,
    get_interconnect,
)
from repro.sim import DetSanRecorder, RandomStreams, Simulator

HB = 0.1
CRASH_AT = 0.15
BLACKHOLE_AT = 0.4
HORIZON = 1.2


def _run(detector, nodes, victims, detsan):
    """Run one scenario; return ``(stream, shared, monitor)``.

    ``stream`` is ``(digest, events_folded)`` under DetSan and
    ``events_executed`` in plain mode; ``shared`` is what both modes
    must agree on.
    """
    topology = FatTreeTopology(nodes)
    plan = FabricFaultPlan()
    host, leaf = topology.route(0, 1)[0]
    plan.link_down_oneway(host, leaf, BLACKHOLE_AT, HORIZON)
    plan.link_down_oneway(leaf, host, BLACKHOLE_AT, HORIZON)
    recorder = DetSanRecorder(keep_records=False) if detsan else None
    sim = Simulator(detsan=recorder, queue="wheel")
    fabric = Fabric(sim, topology, get_interconnect("infiniband_4x"),
                    fault_plan=plan)
    spec = DetectionSpec(detector=detector, heartbeat_interval=HB,
                         suspect_after=3 * HB, dead_after=6 * HB,
                         heartbeat_slots=16)
    monitor = build_monitor(sim, fabric, nodes, spec=spec,
                            streams=RandomStreams(2302))
    monitor.start()
    sim.run(until=CRASH_AT)
    for node in victims:
        monitor.crash(node)
    sim.run(until=HORIZON)
    log = "\n".join(monitor.outcome().health_log).encode()
    shared = (sim.now, fabric.transfer_count, plan.drops, plan.blackholes,
              hashlib.sha256(log).hexdigest())
    if detsan:
        return (recorder.digest, recorder.events_folded), shared, monitor
    return sim.events_executed, shared, monitor


def _spawned(monkeypatch, detector, nodes, victims):
    """Run one scenario in plain mode; return the names of the
    processes it started, in order, and the monitor."""
    names = []
    process = Simulator.process

    def counting(sim, generator, name=""):
        names.append(name)
        return process(sim, generator, name)

    monkeypatch.setattr(Simulator, "process", counting)
    _, _, monitor = _run(detector, nodes, victims, detsan=False)
    return names, monitor


class TestCentralHeartbeats:
    """256 nodes, 16 slots; the monitor host is the isolated host 0, so
    every heartbeat sent after the blackhole starts is lost."""

    SHARED = (1.2, 1027, 2024, 2024,
              "cd6dc6c8e196fdee1259e3465a805b10af3f63b0620651644c0c9744dcbe8d4f")

    def test_under_detsan(self):
        stream, shared, _ = _run("fixed", 256, (37, 201), detsan=True)
        assert stream == (
            "8b1714185e0257e420b7aa894a448d688d8558435f4d79d362509676cde7ad13",
            25463)
        assert shared == self.SHARED

    def test_plain_fast_loop(self):
        stream, shared, _ = _run("fixed", 256, (37, 201), detsan=False)
        assert stream == 25463
        assert shared == self.SHARED

    def test_only_the_long_lived_processes_start(self, monkeypatch):
        """Heartbeats are callback tasks, not processes."""
        names, _ = _spawned(monkeypatch, "fixed", 256, (37, 201))
        assert names == ["hb.slots", "hb.check"]


class TestGossip:
    """128 nodes, 16 slots, probe randomness from a fixed seed."""

    SHARED = (1.2, 3128, 66, 66,
              "714a18473750e53180658a6798eb5b96c530c25b784235a5ea8a475b9e1f3c2f")

    def test_under_detsan(self):
        stream, shared, _ = _run("gossip", 128, (45, 99), detsan=True)
        assert stream == (
            "da8d482bf90e55dedefb3eece4a89bb9818ced9af245d1af4f4753b24dc70e9c",
            29646)
        assert shared == self.SHARED

    def test_plain_fast_loop(self):
        stream, shared, _ = _run("gossip", 128, (45, 99), detsan=False)
        assert stream == 29646
        assert shared == self.SHARED

    def test_only_the_long_lived_processes_start(self, monkeypatch):
        """Probe rounds and their ping and ping-req legs are callback
        tasks: besides the slot driver, only suspicion timers are
        processes, one per suspicion."""
        names, monitor = _spawned(monkeypatch, "gossip", 128, (45, 99))
        assert monitor.suspicions > 0
        assert names[0] == "gs.slots"
        assert len(names) == 1 + monitor.suspicions
        assert all(name.startswith("gs.sus") for name in names[1:])
