"""Golden outputs of the three batch simulators, pinned byte for byte.

Each case replays one seeded workload and hashes every output the run
produces: per-job start and end times (or completions, in completion
order), the makespan, the goodput, lost, zombie and degraded
node-seconds, the failure, kill, requeue, spare and drain counters, and
the health log.  Floats are written with ``repr`` (exact round trip),
so a digest moves when any output moves by one ulp.  The digests were
computed when each simulator still had its own event loop; the merged
loop must reproduce all of them.

The observability pins at the end do the same for the ``sched.*``
metrics an :class:`~repro.obs.Observability` records.
"""

import hashlib
import math

import pytest

from repro.health import DegradedBatchSimulator, DrainWindow
from repro.obs import Observability
from repro.scheduler import (
    BatchSimulator,
    FaultyBatchSimulator,
    WorkloadGenerator,
    WorkloadParams,
    get_policy,
)
from repro.sim import RandomStreams

YEAR = 365.25 * 86400.0
NODES = 32
POLICIES = ("fcfs", "sjf", "easy", "conservative")
CHECKPOINTS = {"scratch": None, "hourly": 3600.0}


def workload(count=200, seed=3):
    generator = WorkloadGenerator(
        WorkloadParams(max_nodes=NODES, offered_load=0.8),
        RandomStreams(seed))
    return generator.generate(count)


def batch(policy):
    return BatchSimulator(NODES, get_policy(policy)).run(workload())


def faulty(policy, checkpoint):
    return FaultyBatchSimulator(
        NODES, get_policy(policy), node_mtbf_seconds=0.02 * YEAR,
        repair_seconds=7200.0, checkpoint_interval=checkpoint,
        streams=RandomStreams(9)).run(workload())


def degraded(policy="easy", **kwargs):
    base = dict(node_mtbf_seconds=0.02 * YEAR, repair_seconds=7200.0,
                streams=RandomStreams(9))
    base.update(kwargs)
    return DegradedBatchSimulator(NODES, get_policy(policy),
                                  **base).run(workload())


#: The first drain takes 3 nodes of an idle-ish machine; the second asks
#: for the whole machine while jobs run, so part of it falls short.
DRAINS = (DrainWindow(20_000.0, 30_000.0, nodes=3),
          DrainWindow(60_000.0, 64_000.0, nodes=NODES))


def _cases():
    cases = {}
    for policy in POLICIES:
        cases[f"batch-{policy}"] = (lambda p=policy: batch(p))
        for label, checkpoint in CHECKPOINTS.items():
            cases[f"faulty-{policy}-{label}"] = (
                lambda p=policy, c=checkpoint: faulty(p, c))
            cases[f"degraded-{policy}-{label}"] = (
                lambda p=policy, c=checkpoint: degraded(
                    p, detection_seconds=900.0, spare_nodes=2,
                    requeue_backoff_seconds=1800.0, checkpoint_interval=c,
                    drains=DRAINS))
    cases["degraded-zero-detection"] = lambda: degraded(
        detection_seconds=0.0, checkpoint_interval=3600.0)
    cases["degraded-spares"] = lambda: degraded(
        detection_seconds=1800.0, spare_nodes=3)
    cases["degraded-dry-spares"] = lambda: degraded(
        detection_seconds=900.0, spare_nodes=1,
        node_mtbf_seconds=0.01 * YEAR)
    cases["degraded-backoff"] = lambda: degraded(
        detection_seconds=600.0, requeue_backoff_seconds=3600.0,
        checkpoint_interval=1800.0)
    cases["degraded-drain-shortfall"] = lambda: degraded(
        "conservative", node_mtbf_seconds=math.inf, drains=DRAINS)
    return cases


CASES = _cases()

#: Output fields hashed per result type, in this order.
FAULTY_FIELDS = ("makespan", "first_submit", "goodput_node_seconds",
                 "lost_node_seconds", "failures", "job_kills")
DEGRADED_FIELDS = FAULTY_FIELDS + (
    "spare_nodes", "zombie_node_seconds", "degraded_node_seconds",
    "requeues", "spare_activations", "drain_shortfall", "min_spare_depth")


def canonical(result, kind) -> bytes:
    """Every output of a ``kind`` run, one ``repr``-exact line per value."""
    lines = [f"total_nodes={result.total_nodes}"]
    if kind == "batch":
        lines.append(f"makespan={result.makespan!r}")
        lines.append(f"first_submit={result.first_submit!r}")
        lines += [f"job={r.job.job_id} state={r.state.value} "
                  f"start={r.start_time!r} end={r.end_time!r}"
                  for r in result.records]
    else:
        fields = DEGRADED_FIELDS if kind == "degraded" else FAULTY_FIELDS
        lines += [f"{name}={getattr(result, name)!r}" for name in fields]
        lines += [f"done={job_id} submit={submit!r} end={end!r}"
                  for job_id, (submit, end) in result.completions.items()]
        if kind == "degraded":
            lines += list(result.health_log)
    return "\n".join(lines).encode()


def digest(case) -> str:
    kind = case.split("-")[0]
    return hashlib.sha256(canonical(CASES[case](), kind)).hexdigest()


GOLDEN = {
    "batch-conservative":
        "745de6569d730594bdc1a2b0aee99af597aa1a36c7a91fba27f93ac98f9ef5ac",
    "batch-easy":
        "923c15c7375ca61711703479324c5fda1f4bd50d6911994ed9dc455e1075133b",
    "batch-fcfs":
        "425c052f4f9d14f8e98aee91a4d18708d568afd5536663520963b7bb1c35d281",
    "batch-sjf":
        "e38ed47bf6a1c5d41d85f45bb61ebe0ac1df0f7bdab12d52cee4a5b8515aa53e",
    "degraded-backoff":
        "4a7a468189bd85c957d9e9efbe1ff8cfc800df20181941fe64eb074d41f1f6b6",
    "degraded-conservative-hourly":
        "5a26c63a268a65cc38ffff165c40296652ccec1ea0967dfe5da134049749eb8d",
    "degraded-conservative-scratch":
        "4669e02eecb747cca7496f494db481a19577c43e81207295d6eb29d92ba69fbf",
    "degraded-drain-shortfall":
        "3db975417ca350b22e45c9331ba1d67cfe3a0e12fa3df760c7513c6b6e0ddd76",
    "degraded-dry-spares":
        "64453c9615489c85a199a7a647fb023fa9d2a1fda014d617e9f5bfa29f93033e",
    "degraded-easy-hourly":
        "b46039adbcb72409900fd10af7979e79c6ca8e856c2cde0dfbf94c2cf9da7ff6",
    "degraded-easy-scratch":
        "4a590f5404977c82582c82bb598f4f7a36b57de918b70c049d97e313692d9f3f",
    "degraded-fcfs-hourly":
        "51b46986be080e9e688d0091d57b8e527df9e3d74f43d0833980f181cd13c8bf",
    "degraded-fcfs-scratch":
        "1b90361f89e72cba16d200f60983f94fef9f8a83231e2fe93e016fbc92d91de0",
    "degraded-sjf-hourly":
        "cf6a8b794b2c3f0dadddf2e1ca0cd049567117a144a6c909991b9afd06e5a77f",
    "degraded-sjf-scratch":
        "4714a2de0eafb45cb0b65f5aa8837e3ab8f7642a24a93b2409223006b9a2514a",
    "degraded-spares":
        "4abb02b81bd9d67d92b9eff1fe3c6fbc431f4206b46ae75340da45c5885350fd",
    "degraded-zero-detection":
        "8a0e8b9ce20a836b8fc4c243cad5dd5ce0e3ea2249df1ceccba6590f08d9396f",
    "faulty-conservative-hourly":
        "649e43301549b5eb56aec67a719e2629422cca21132a9ffe138dd62846ea318c",
    "faulty-conservative-scratch":
        "d23e4bd883fbf06c87c4a39f3ed2965dffabf588f2122c4bad26647ddcee138f",
    "faulty-easy-hourly":
        "8992a566f23210f78e8a2edb2c86ec8aec5db8b330e6894262b9d4dcb669a3d5",
    "faulty-easy-scratch":
        "a174e3d6d3496eafa575759509fa8b472cb505d037bcd503ac836522188091c7",
    "faulty-fcfs-hourly":
        "e3474a58c0bb2e57b97fad72f6c823acf1e52223ee86ee3e0870c1b1fa59be61",
    "faulty-fcfs-scratch":
        "0277f2a277e4433ec93470176dc5c879c8e0347efb2ee11d8af83bd44faba78f",
    "faulty-sjf-hourly":
        "58da919d74991d1a616d82dda2807a8e757204c79773c9e3922d566da5185e10",
    "faulty-sjf-scratch":
        "c99632a5a97ed5618fc0d78490f5d3fd919618065d0b82e5645257cf0793a8c5",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digest_is_pinned(case):
    assert digest(case) == GOLDEN[case]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("checkpoint", sorted(CHECKPOINTS))
def test_degenerate_configurations_agree_exactly(policy, checkpoint):
    """Batch is the failure model with MTBF = inf, and the oracle is the
    detected model with zero detection, no spares and no drains: equal
    on every float, not merely close."""
    interval = CHECKPOINTS[checkpoint]
    oracle = faulty(policy, interval)
    detected = degraded(policy, detection_seconds=0.0,
                        checkpoint_interval=interval)
    for name in FAULTY_FIELDS:
        assert getattr(detected, name) == getattr(oracle, name), name
    assert list(detected.completions.items()) == list(
        oracle.completions.items())
    plain = batch(policy)
    clean = FaultyBatchSimulator(NODES, get_policy(policy), math.inf,
                                 checkpoint_interval=interval).run(workload())
    assert clean.makespan == plain.makespan
    assert clean.completions == {
        r.job.job_id: (r.job.submit_time, r.end_time) for r in plain.records}


def test_cases_exercise_every_path():
    """The pinned runs are only worth pinning if they fail, kill,
    requeue, activate and run dry on spares, and fall short on drains."""
    rich = CASES["degraded-easy-hourly"]()
    assert rich.failures > 0 and rich.job_kills > 0
    assert rich.zombie_node_seconds > 0.0
    assert rich.spare_activations > 0
    assert rich.drain_shortfall > 0
    assert CASES["degraded-dry-spares"]().min_spare_depth == 0
    assert CASES["degraded-drain-shortfall"]().drain_shortfall > 0
    assert CASES["faulty-sjf-scratch"]().job_kills > 0


def metrics_digest(obs) -> str:
    """The registry's counters, gauges and histogram samples, plus every
    span and instant, in a canonical order."""
    snap = obs.metrics.snapshot()
    lines = []
    for kind, table in (("counter", snap.counters), ("gauge", snap.gauges),
                        ("histogram", snap.histograms)):
        lines += [f"{kind} {key!r} {table[key]!r}" for key in sorted(table)]
    lines += [f"span {s.name} {s.track} {s.start!r} {s.end!r} "
              f"{sorted(s.attrs.items())!r}" for s in obs.spans]
    lines += [f"instant {i.name} {i.track} {i.time!r} "
              f"{sorted(i.attrs.items())!r}" for i in obs.instants]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestObservability:
    def test_batch_metrics_and_one_start_instant_per_job(self):
        obs = Observability()
        jobs = workload()
        BatchSimulator(NODES, get_policy("easy"), obs=obs).run(jobs)
        starts = [i.attrs["job"] for i in obs.instants
                  if i.name == "sched.start"]
        assert sorted(starts) == [job.job_id for job in jobs]
        names = {key[0] for key in obs.metrics.snapshot().counters}
        assert names == {"sched.starts", "sched.completions"}
        assert metrics_digest(obs) == (
            "336151c4083e262baaf9457324366bf571ab632e1d60ced59e434d2076f11760")

    def test_degraded_records_only_health_gauges(self):
        obs = Observability()
        DegradedBatchSimulator(
            NODES, get_policy("easy"), node_mtbf_seconds=0.02 * YEAR,
            detection_seconds=900.0, spare_nodes=2,
            streams=RandomStreams(9), obs=obs).run(workload())
        snap = obs.metrics.snapshot()
        assert not snap.counters and not snap.histograms
        assert not obs.spans and not obs.instants
        assert {key[0] for key in snap.gauges} == {
            "sched.health.availability", "sched.health.zombie_node_seconds",
            "sched.health.spare_activations", "sched.health.min_spare_depth",
            "sched.health.requeues"}
        assert metrics_digest(obs) == (
            "798213f5267599473bc77af6abe1376931b56b6e77cdd02080ecfda226200ede")
