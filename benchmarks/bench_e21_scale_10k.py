"""E21 at fleet scale: detection-driven health monitoring of 10^4 nodes.

The detection experiments must reach the paper's cluster sizes
instead of toy 4-rank worlds.  This bench runs the
E21-style health campaign — heartbeats through a real fat-tree fabric,
fixed-timeout detector, mid-run crashes — over **10,000 nodes**, with
the slot driver set two ways:

* ``per-node`` — ``heartbeat_slots`` unset: one slot per node, so the
  driver wakes once per node per interval, each node at its own phase;
* ``slotted`` — 256 shared phase slots per interval
  (``DetectionSpec.heartbeat_slots=256``), the setting that makes this
  scale affordable.

Shape claims: every injected crash is detected, nothing healthy is
declared dead (the interval/timeout budget is sized for the monitor
link's aggregate load), both settings agree on the detection verdicts,
and 256 slots schedule fewer engine events in at most 1.1x the
wall-clock.  The run writes ``BENCH_e21_scale_10k.json`` with MTTD,
false positives, event counts and wall-clock events/second per mode.
"""

import time
from pathlib import Path

from repro.health import DetectionSpec, HeartbeatMonitor
from repro.network import Fabric, FatTreeTopology, get_interconnect
from repro.sim import Simulator
from repro.xp import write_bench_artifact

NODES = 10_000
HEARTBEAT = 0.1
SLOTS = 256
#: Crashes injected after the detector has a baseline.
CRASH_AT = 0.5
CRASHED = (1234, 7777, 9999)
HORIZON = 2.0

_ARTIFACT_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_e21_scale_10k.json"


def run_campaign(slots):
    """One 10^4-node campaign; ``slots=None`` is one slot per node."""
    sim = Simulator()
    fabric = Fabric(sim, FatTreeTopology(NODES),
                    get_interconnect("infiniband_4x"))
    spec = DetectionSpec(detector="fixed",
                         heartbeat_interval=HEARTBEAT,
                         suspect_after=3 * HEARTBEAT,
                         dead_after=6 * HEARTBEAT,
                         heartbeat_slots=slots)
    monitor = HeartbeatMonitor(sim, fabric, NODES, spec=spec)
    monitor.start()
    wall_start = time.perf_counter()
    sim.run(until=CRASH_AT)
    for node in CRASHED:
        monitor.crash(node)
    sim.run(until=HORIZON)
    wall = time.perf_counter() - wall_start
    real = sorted((d.node, d.detect_seconds) for d in monitor.deaths
                  if not d.false_positive)
    return {
        "mode": "per-node" if slots is None else f"slotted-{slots}",
        "nodes": NODES,
        "events": sim.events_executed,
        "wall_seconds": wall,
        "events_per_second": sim.events_executed / wall,
        "detected": [node for node, _ in real],
        "mttd_seconds": monitor.mttd_seconds(),
        "false_deaths": sum(1 for d in monitor.deaths
                            if d.false_positive),
        "heartbeats_sent": monitor.heartbeats_sent,
        "heartbeats_delivered": monitor.heartbeats_delivered,
    }


def test_e21_scale_10k_detection(benchmark):
    results = benchmark.pedantic(
        lambda: {label: run_campaign(slots)
                 for label, slots in (("per-node", None),
                                      ("slotted", SLOTS))},
        rounds=1, iterations=1)
    per_node, slotted = results["per-node"], results["slotted"]

    # Shape claims -----------------------------------------------------
    for row in (per_node, slotted):
        # Every injected crash detected, nothing healthy declared dead.
        assert row["detected"] == sorted(CRASHED)
        assert row["false_deaths"] == 0
        # MTTD lands inside the detector's budget: silence must reach
        # dead_after, and the checker polls every half interval.
        assert 5 * HEARTBEAT < row["mttd_seconds"] < 8 * HEARTBEAT
    # 256 shared slots schedule strictly fewer engine events than one
    # slot per node, and are no more than 10 % slower in wall-clock.
    assert slotted["events"] < per_node["events"]
    assert (slotted["wall_seconds"]
            < per_node["wall_seconds"] * 1.1)

    payload = {
        "benchmark_module": "bench_e21_scale_10k",
        "heartbeat_interval_seconds": HEARTBEAT,
        "dead_after_seconds": 6 * HEARTBEAT,
        "horizon_seconds": HORIZON,
        "results": results,
    }
    # Atomic write (temp + rename) so an interrupted run can never
    # leave a truncated artifact for CI's validation step to choke on.
    write_bench_artifact(_ARTIFACT_PATH, payload, required=("results",))

    lines = ["E21-scale: 10^4-node detection campaign"]
    for label, row in results.items():
        lines.append(
            f"  {label:>8}: {row['events']:>9,} events  "
            f"{row['events_per_second']:>10,.0f} ev/s  "
            f"MTTD {row['mttd_seconds'] * 1e3:.0f} ms  "
            f"false {row['false_deaths']}")
    print("\n" + "\n".join(lines))
