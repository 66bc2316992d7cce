"""Observability must never perturb the simulation it watches.

The overhead-regression contract: a fixed workload run with the null
observability and again with a recording one must deliver bit-identical
event order, timings and application answers.  The recording run may
only *add* data on the side.
"""

import numpy as np

from repro.fault.campaign import run_campaign, run_workload
from repro.messaging import CommConfig
from repro.messaging.program import make_world
from repro.network import FabricFaultPlan
from repro.obs import Observability
from repro.sim import DetSanRecorder, RandomStreams, Simulator
from tests.conftest import RING, drive_ring_exchange, make_summa_spec


def lossy_ring_run(obs=None):
    """A fixed lossy ring exchange with every delivered event recorded;
    returns (event rows, payloads, final virtual time)."""
    recorder = DetSanRecorder()
    sim = Simulator(detsan=recorder, obs=obs)
    streams = RandomStreams(3)
    plan = FabricFaultPlan(drop_probability=0.3,
                           rng=streams.get("net.loss"))
    world = make_world(RING, sim=sim, config=CommConfig(reliable=True),
                      streams=streams, fault_plan=plan)
    got = drive_ring_exchange(world, rounds=3)
    return recorder.records, got, sim.now


class TestNullVersusRecording:
    def test_event_order_and_answers_bit_identical(self):
        null_records, null_got, null_now = lossy_ring_run(obs=None)
        obs = Observability()
        rec_records, rec_got, rec_now = lossy_ring_run(obs=obs)
        assert rec_records == null_records  # same events, same order
        assert rec_got == null_got
        assert rec_now == null_now
        assert obs.spans and len(obs.metrics) > 0  # it did record

    def test_workload_outcome_identical_with_and_without_obs(self):
        spec = make_summa_spec()
        null_outcome = run_workload(spec)
        obs_outcome = run_workload(spec, obs=Observability())
        assert obs_outcome.elapsed == null_outcome.elapsed
        assert obs_outcome.fault_trace == null_outcome.fault_trace
        assert obs_outcome.comm_stats == null_outcome.comm_stats
        assert obs_outcome.fabric_counters == null_outcome.fabric_counters
        assert np.array_equal(obs_outcome.answers[0],
                              null_outcome.answers[0])


class TestInstrumentedCampaign:
    def test_answers_match_doubles_as_noninterference_proof(self):
        """run_campaign instruments only the faulty run, so the
        bit-identical verdict compares an instrumented execution against
        an uninstrumented reference."""
        obs = Observability()
        report = run_campaign(make_summa_spec(), obs=obs)
        assert report.answers_match
        assert obs.spans, "the faulty run was supposed to be instrumented"

    def test_same_seed_same_span_stream(self):
        def spans():
            obs = Observability()
            run_workload(make_summa_spec(), obs=obs)
            obs.finalize()
            return [(s.span_id, s.name, s.track, s.start, s.end,
                     s.parent_id, s.status) for s in obs.spans]

        assert spans() == spans()
