"""Detection-driven campaigns: recovery waits for the detector.

The oracle campaign rolls back the instant a fault fires; these runs
only roll back when the heartbeat monitor *declares* a death — so lost
work includes the detection window, a partition can force a spurious
rollback, and the acceptance bar is that the answers stay bit-identical
through all of it.
"""

import math

import pytest

from repro.fault import (
    LinkFaultSpec,
    NodeFaultSpec,
    run_campaign,
)
from repro.fault.campaign import run_workload
from repro.health import DetectionSpec
from repro.obs import Observability
from repro.sim import DetSanRecorder
from tests.conftest import make_stencil_spec

HB = 1e-4

#: Tight fixed-timeout detection: suspect after 3 beats, dead after 6.
TIGHT = DetectionSpec(detector="fixed", heartbeat_interval=HB,
                      suspect_after=3 * HB, dead_after=6 * HB)

#: Severs host 1's only access link for 1 ms — longer than TIGHT's
#: patience, so node 1 is falsely declared dead while its application
#: traffic survives on reliable retries.
PARTITION = LinkFaultSpec(start=6e-4, duration=1e-3,
                          a=("h", 1), b=("s", 0))

#: Strikes while the (partition-slowed) run is still going.
CRASH = NodeFaultSpec(time=2.5e-3, rank=2)

#: Strikes mid-run even without a partition (the clean stencil finishes
#: around 2.3 ms).
EARLY_CRASH = NodeFaultSpec(time=1.5e-3, rank=2)


#: Gossip probes are round trips, so its period is 1 ms.
GOSSIP = DetectionSpec(detector="gossip", heartbeat_interval=1e-3,
                       suspect_after=3e-3, dead_after=6e-3)


def detected_spec(**overrides):
    base = dict(name="test-detection", detection=TIGHT,
                node_faults=(CRASH,), link_faults=())
    base.update(overrides)
    return make_stencil_spec(**base)


class TestRealFault:
    def test_rollback_waits_for_the_detector(self):
        report = run_campaign(detected_spec(node_faults=(EARLY_CRASH,)))
        assert report.answers_match
        assert report.faulty.incarnations == 2
        detection = report.faulty.detection
        assert detection is not None
        assert len(detection.detections) == 1
        record = detection.detections[0]
        assert record.node == EARLY_CRASH.rank
        assert not record.false_positive
        # MTTD is about the dead timeout (silence is clocked from the
        # last delivered heartbeat; the checker quantizes).
        assert 6 * HB - HB <= record.detect_seconds <= 6 * HB + 2 * HB
        assert detection.false_deaths == 0
        # The detection window is paid as lost work on top of the
        # oracle's compute-since-checkpoint bill.
        assert report.faulty.lost_work_seconds > record.detect_seconds

    def test_health_log_shows_the_lifecycle(self):
        report = run_campaign(detected_spec(node_faults=(EARLY_CRASH,)))
        log = "\n".join(report.faulty.detection.health_log)
        assert "cause=missed-heartbeats" in log
        assert "cause=silence-confirmed" in log
        assert "cause=restored" in log

    def test_summary_reports_detection(self):
        summary = run_campaign(
            detected_spec(node_faults=(EARLY_CRASH,))).summary()
        assert "declared 1 death(s)" in summary
        assert "MTTD" in summary

    def test_oracle_path_untouched_without_detection(self):
        report = run_campaign(detected_spec(node_faults=(EARLY_CRASH,),
                                            detection=None))
        assert report.answers_match
        assert report.faulty.detection is None


class TestFalseSuspicion:
    def test_partition_forces_spurious_but_safe_rollback(self):
        """The headline acceptance scenario: a partition tricks the
        detector into declaring a live rank dead.  The supervisor rolls
        back anyway — and the answers are still bit-identical."""
        report = run_campaign(detected_spec(link_faults=(PARTITION,)))
        assert report.answers_match
        detection = report.faulty.detection
        assert detection.false_deaths == 1
        assert len(detection.detections) == 2
        false = [d for d in detection.detections if d.false_positive]
        assert [d.node for d in false] == [1]
        assert math.isnan(false[0].detect_seconds)
        # One real rollback + one spurious rollback = 3 incarnations.
        assert report.faulty.incarnations == 3
        # The spurious rollback is first in the trace (time, rank, step).
        assert report.faulty.fault_trace[0][1] == 1
        # Application traffic rode out the partition on retries.
        assert report.retries > 0

    def test_loose_timeout_rides_out_the_partition(self):
        loose = DetectionSpec(detector="fixed", heartbeat_interval=HB,
                              suspect_after=8 * HB, dead_after=16 * HB)
        report = run_campaign(detected_spec(detection=loose,
                                            link_faults=(PARTITION,)))
        assert report.answers_match
        detection = report.faulty.detection
        assert detection.false_deaths == 0
        assert len(detection.detections) == 1
        assert report.faulty.incarnations == 2
        # The partition still cost suspicion, just not a death.
        assert detection.false_suspicions >= 1


class TestMetrics:
    def test_detector_metrics_published(self):
        """Detector measurements flow through repro.obs gauges."""
        eight = DetectionSpec(detector="fixed", heartbeat_interval=HB,
                              suspect_after=4 * HB, dead_after=8 * HB)
        obs = Observability()
        report = run_campaign(detected_spec(detection=eight,
                                            link_faults=(PARTITION,)),
                              obs=obs)
        assert report.answers_match
        gauges = {name: value for (name, _labels), value
                  in obs.metrics.snapshot().gauges.items()}
        for name in ("health.mttd_mean_seconds", "health.deaths",
                     "health.false_deaths", "health.availability",
                     "health.heartbeats.sent"):
            assert name in gauges, f"missing gauge {name}"
        assert gauges["health.deaths"] == 2.0
        assert gauges["health.false_deaths"] == 1.0
        assert 0.9 < gauges["health.availability"] < 1.0


class TestPhiAccrual:
    def test_phi_detector_recovers_bit_identically(self):
        phi = DetectionSpec(detector="phi", heartbeat_interval=HB)
        report = run_campaign(detected_spec(detection=phi,
                                            link_faults=(PARTITION,)))
        assert report.answers_match
        detection = report.faulty.detection
        real = [d for d in detection.detections if not d.false_positive]
        assert [d.node for d in real] == [CRASH.rank]


class TestNoFaults:
    def test_clean_run_declares_nothing(self):
        report = run_campaign(detected_spec(node_faults=(),
                                            link_faults=()))
        assert report.answers_match
        assert report.faulty.incarnations == 1
        detection = report.faulty.detection
        assert detection.detections == ()
        assert detection.false_deaths == 0
        assert math.isnan(detection.mttd_seconds)
        assert detection.heartbeats_delivered > 0


class TestFastLoop:
    """With observability and DetSan off, a detection-driven campaign's
    ``stop``/budget runs deliver every event on the engine's fast loop.
    A silent fall-back to the instrumented loop calls
    ``Simulator._dispatch`` once per event, so this fails on any host."""

    @pytest.mark.parametrize("detection", [TIGHT, GOSSIP],
                             ids=["fixed", "gossip"])
    def test_detection_driven_campaign_never_dispatches(self, loop_calls,
                                                        detection):
        report = run_campaign(detected_spec(detection=detection,
                                            node_faults=(EARLY_CRASH,)))
        assert report.answers_match
        assert report.faulty.detection.detections
        assert loop_calls["stop_runs"] > 0
        assert loop_calls["dispatch"] == 0

    def test_a_sanitized_run_dispatches_every_event(self, loop_calls):
        """The counter is live: under DetSan each event is dispatched."""
        recorder = DetSanRecorder()
        run_workload(detected_spec(node_faults=(EARLY_CRASH,)),
                     detsan=recorder)
        assert loop_calls["dispatch"] == recorder.events_folded > 0
