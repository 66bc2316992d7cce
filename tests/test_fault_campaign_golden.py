"""Golden outputs of the fault-campaign supervisor, pinned byte for byte.

Each case runs one 4-rank campaign twice: the faulty run under a
recording :class:`~repro.obs.Observability` and a DetSan recorder, then
the failure-free replay under a DetSan recorder.  The digest covers
everything those runs produce:

* both :class:`~repro.fault.RunOutcome` values, answers, fault trace and
  detection outcome (health log included);
* both DetSan digests and their event counts;
* the Chrome trace bytes and the metrics dump of the faulty run;
* how many times each run called :meth:`Simulator.run`.

Floats are written with ``repr`` (exact round trip) and arrays as raw
bytes, so a digest moves when any output moves by one ulp.  The digests
were first computed when oracle and detected recovery still had separate
supervisor loops; the merged loop reproduced all of them.  The twelve
cases that run one heartbeat or probe slot per node (fixed, phi and
gossip without ``heartbeat_slots``) were re-pinned once, when the
per-node sender and prober processes gave way to the shared slot
driver: their beats now come from the cycle index, so the faulty run's
elapsed time, availability, heartbeat counts and the DetSan, trace and
metrics lines that follow from them moved.  The other ten digests did
not move.  The fourteen detector-driven digests were re-pinned again
when heartbeats, probe rounds and their legs became callback tasks
instead of processes: each message lost its end event and its process
span, so only the faulty run's DetSan line, its Chrome trace and the
``sim.events_executed`` gauge in its metrics dump moved.  The eight
oracle digests did not move.

A second, coarser pin per case covers only what detection decided and
what the job computed (:func:`semantics`): the health log, the death
records, the false-suspicion, false-death and incarnation counts, and
the answers.  It was computed before the scheduler change and held
through it unchanged for all 22 cases.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.fault import LinkFaultSpec, NodeFaultSpec
from repro.fault.campaign import run_workload
from repro.health import DetectionSpec
from repro.obs import Observability, chrome_trace_json, render_metrics
from repro.sim import Simulator
from repro.sim.detsan import DetSanRecorder
from tests.conftest import make_stencil_spec, make_summa_spec

HB = 1e-4

#: Suspect after 3 missed beats, declare dead after 6.
FIXED = DetectionSpec(detector="fixed", heartbeat_interval=HB,
                      suspect_after=3 * HB, dead_after=6 * HB)

#: Severs host 1's only access link for 1 ms, longer than FIXED's
#: patience: node 1 is falsely declared dead.
PARTITION = LinkFaultSpec(start=6e-4, duration=1e-3,
                          a=("h", 1), b=("s", 0))

#: Gossip probes are round trips, so its period is 1 ms, and the
#: partition is stretched to match (the ``health`` CLI's gossip demo).
GOSSIP = DetectionSpec(detector="gossip", heartbeat_interval=1e-3,
                       suspect_after=3e-3, dead_after=6e-3)
GOSSIP_PARTITION = LinkFaultSpec(start=2e-3, duration=1.2e-2,
                                 a=("h", 1), b=("s", 0))

#: Mid-run for both kernels (clean summa ends near 1.1 ms, stencil2d
#: near 2.2 ms).
EARLY_CRASH = (NodeFaultSpec(time=8e-4, rank=2),)
#: Strikes while the partition slows the run.
CRASH = (NodeFaultSpec(time=2.5e-3, rank=2),)
#: Long after either job has finished.
AFTER_FINISH = (NodeFaultSpec(time=0.05, rank=1),)
#: The oracle restarts 0.6-0.8 ms after the first fault; the second and
#: third strike while the job is down and hit the next incarnation the
#: instant it comes up.
ORACLE_MID_RESTART = (NodeFaultSpec(time=6e-4, rank=1),
                      NodeFaultSpec(time=7e-4, rank=3),
                      NodeFaultSpec(time=9e-4, rank=0))
#: FIXED declares the first crash at 1.2 ms and restarts until 1.4 ms;
#: the second fault strikes in between.
FIXED_MID_RESTART = (NodeFaultSpec(time=6e-4, rank=1),
                     NodeFaultSpec(time=1.3e-3, rank=3))

#: Overrides of the conftest specs; ``oracle`` keeps their three node
#: faults and two link windows.
CASES = {
    "oracle": {},
    "oracle-mid-restart": dict(node_faults=ORACLE_MID_RESTART,
                               link_faults=()),
    "oracle-after-finish": dict(node_faults=AFTER_FINISH),
    "oracle-no-faults": dict(node_faults=(), link_faults=()),
    "fixed-early": dict(detection=FIXED, node_faults=EARLY_CRASH,
                        link_faults=()),
    "fixed-mid-restart": dict(detection=FIXED,
                              node_faults=FIXED_MID_RESTART,
                              link_faults=()),
    "fixed-partition": dict(detection=FIXED, node_faults=CRASH,
                            link_faults=(PARTITION,)),
    "fixed-after-finish": dict(detection=FIXED, node_faults=AFTER_FINISH,
                               link_faults=()),
    "phi-partition": dict(
        detection=DetectionSpec(detector="phi", heartbeat_interval=HB),
        node_faults=CRASH, link_faults=(PARTITION,)),
    "fixed-slotted": dict(
        detection=dataclasses.replace(FIXED, heartbeat_slots=2),
        node_faults=EARLY_CRASH, link_faults=()),
    "gossip-partition": dict(detection=GOSSIP, node_faults=EARLY_CRASH,
                             link_faults=(GOSSIP_PARTITION,)),
}

SPECS = {"stencil2d": make_stencil_spec, "summa": make_summa_spec}


def canonical(value) -> str:
    """``repr``-exact text of an outcome: dataclasses field by field,
    arrays as dtype, shape and raw bytes, dicts in key order."""
    if dataclasses.is_dataclass(value):
        fields = ",".join(f"{f.name}={canonical(getattr(value, f.name))}"
                          for f in dataclasses.fields(value))
        return f"{type(value).__name__}({fields})"
    if isinstance(value, np.ndarray):
        return (f"array({value.dtype.str},{value.shape},"
                f"{value.tobytes().hex()})")
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canonical(item) for item in value) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{key!r}:{canonical(value[key])}"
                              for key in sorted(value)) + "}"
    return repr(value)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def semantics(faulty) -> str:
    """What detection decided and what the job computed, one line each:
    the health log, the death records, the false-suspicion, false-death
    and incarnation counts, and the answers."""
    detection = faulty.detection
    lines = list(detection.health_log) if detection else []
    lines += [repr(record) for record in
              (detection.detections if detection else ())]
    lines.append(
        f"false_suspicions={detection.false_suspicions if detection else 0}"
        f" false_deaths={detection.false_deaths if detection else 0}"
        f" incarnations={faulty.incarnations}")
    lines.append(canonical(faulty.answers))
    return "\n".join(lines)


def outputs(kernel: str, case: str):
    """The faulty and clean runs of one case: one line per output."""
    spec = SPECS[kernel](**CASES[case])
    runs = []
    original = Simulator.run

    def counting_run(sim, *args, **kwargs):
        runs[-1] += 1
        return original(sim, *args, **kwargs)

    Simulator.run = counting_run
    try:
        runs.append(0)
        obs = Observability()
        faulty_san = DetSanRecorder(keep_records=False)
        faulty = run_workload(spec, obs=obs, detsan=faulty_san)
        obs.finalize()
        runs.append(0)
        clean_san = DetSanRecorder(keep_records=False)
        clean = run_workload(spec, faults_enabled=False, detsan=clean_san)
    finally:
        Simulator.run = original
    return faulty, clean, [
        f"faulty {sha(canonical(faulty))}",
        f"clean {sha(canonical(clean))}",
        f"detsan faulty {faulty_san.digest} "
        f"events={faulty_san.events_folded}",
        f"detsan clean {clean_san.digest} events={clean_san.events_folded}",
        f"trace {sha(chrome_trace_json(obs))}",
        f"metrics {sha(render_metrics(obs.metrics))}",
        f"sim.run calls faulty={runs[0]} clean={runs[1]}",
    ]


#: What each case must exercise, as (incarnations, false deaths); the
#: same for both kernels.
SHAPES = {
    "oracle": (4, 0),
    "oracle-mid-restart": (4, 0),
    "oracle-after-finish": (1, 0),
    "oracle-no-faults": (1, 0),
    "fixed-early": (2, 0),
    "fixed-mid-restart": (3, 0),
    "fixed-partition": (3, 1),
    "fixed-after-finish": (1, 0),
    "phi-partition": (3, 1),
    "fixed-slotted": (2, 0),
    "gossip-partition": (5, 3),
}

GOLDEN = {
    "stencil2d-fixed-after-finish":
        "2e33d039ebf6dcbfe1e6499351c37b9f167f2fbc4abbec65a23e0c94f1165333",
    "stencil2d-fixed-early":
        "d6f283078ad23ece7269c7f2e3abeba587080eb89f22aa70c0be876239d351c9",
    "stencil2d-fixed-mid-restart":
        "668c5f385e5f801b54769a81401838fb6773754e915286ff972aefdc5996a91f",
    "stencil2d-fixed-partition":
        "5ee13c47cccddf568b6a634c0a25c74a07fd3caa0e6a2dd89809508aad08337d",
    "stencil2d-fixed-slotted":
        "eacbaa197f94ab50ee29d59e017641973535293a06b65520d1023279363d1bf5",
    "stencil2d-gossip-partition":
        "887f67f8bfb5edfd83b2b35ae950e65d3cd8446d902d4309335820824aa67589",
    "stencil2d-oracle":
        "d90e154e1b865669ebc14317f2605a98c763cf6512a45496f614d38aa1ccfab5",
    "stencil2d-oracle-after-finish":
        "ba532f7d4e6c1dbd8ef2fe0245f90e1370bcd0489b6371afe3a65cb7681a4529",
    "stencil2d-oracle-mid-restart":
        "9641b39b0744d0e4e49d1c94ece697aa4aad2890961398bc388f81e4661234f1",
    "stencil2d-oracle-no-faults":
        "9f1b9cd3535663492d55520c4eda6cd8ba0d49576e7ba1b26ed9e69ad2db1f6a",
    "stencil2d-phi-partition":
        "e56921a3ff25734b855387a4179fc82472999769eb758aac90451ce6a1b345d4",
    "summa-fixed-after-finish":
        "cb82f84f56f951b0a47ab42ff6e11914b8835fb31348560c7e7f049baa81c91c",
    "summa-fixed-early":
        "85f4b0ab0e305cef56f3512fcb805baca2454297cc5420fa36a564468b4fab97",
    "summa-fixed-mid-restart":
        "3ec5dc8e6cd11ce93cb9831924b29bdc426f93b6a735c4b7d659a91ba9c586c2",
    "summa-fixed-partition":
        "4a653ca229e9d81dbc60d56b070df3d3bc414022b39b865ad8f6c28d26ee433b",
    "summa-fixed-slotted":
        "4709072569d8c10b12bb706955d0d711fe7c08d0ea3096150a0a8d960c044799",
    "summa-gossip-partition":
        "e402eac4f2286d16e3c3ec0123df585b5c379016750231a238e3206278459e5f",
    "summa-oracle":
        "7b99c0df9f7dda38c0277079f5378c45ab47f0d7473691d595c25c4a8daed68d",
    "summa-oracle-after-finish":
        "9849a3126bb5f1f305333981e575790e62f069e31a46f74d557f0a509bad3776",
    "summa-oracle-mid-restart":
        "5b0b4163e1c5409996087b834937ad642462bd774323e76f7c46f294fb92ac09",
    "summa-oracle-no-faults":
        "18947556c47bf90a5a0de45d432efaf4a43a3d9503c25b312591eb55644c9385",
    "summa-phi-partition":
        "6df0322b02a09a306fad65f7db43399551caf9643cba3557ee1457ad14465e25",
}


#: SHA-256 of :func:`semantics` per case.  These pins hold across any
#: change that moves only heartbeat or probe timing.
SEMANTIC = {
    "stencil2d-fixed-after-finish":
        "6c969cc4507e8aeed56aa0a3f8df058334af5306bebb8c40f66989c82c2c6718",
    "stencil2d-fixed-early":
        "d0c724281049c3302a3a0b2cb3e24a5e65121c1ef2651655d9b48c7d28ff6042",
    "stencil2d-fixed-mid-restart":
        "3f2009841fbbb0be6ba3d8026b109a50ff146c874b708269b13d7e4e4fe85208",
    "stencil2d-fixed-partition":
        "7d020b11baae0a08f3ce2d84dd6028596cf6c63d3ab9616dc833321917a6dfc8",
    "stencil2d-fixed-slotted":
        "2f0bd100f69aa13089d22d0ee9e2cb3cd226798f02e580c4a66ee7172d3d5892",
    "stencil2d-gossip-partition":
        "ed6fb5ef6ced108da7db28064bc984297e2de06dcf6b58340fd4e65e5f2535d6",
    "stencil2d-oracle":
        "d6b9d3be1f63b55094c2a777cc4acef36aa31f6ff7eead3a9bdafb7cd383aa7f",
    "stencil2d-oracle-after-finish":
        "6c969cc4507e8aeed56aa0a3f8df058334af5306bebb8c40f66989c82c2c6718",
    "stencil2d-oracle-mid-restart":
        "d6b9d3be1f63b55094c2a777cc4acef36aa31f6ff7eead3a9bdafb7cd383aa7f",
    "stencil2d-oracle-no-faults":
        "6c969cc4507e8aeed56aa0a3f8df058334af5306bebb8c40f66989c82c2c6718",
    "stencil2d-phi-partition":
        "9d3a05e722a6735fd4649a84e4b2f67d765bcbb042675ad98f63b055ff74d856",
    "summa-fixed-after-finish":
        "dfc948c01e77302dd0fc03b0f900fe782a875ad361219a8809d3549c2a5ae762",
    "summa-fixed-early":
        "ff6c718c8248d5dfa630f3159102dee4fd67e8e438e9d17a7669f5ac74b4849c",
    "summa-fixed-mid-restart":
        "a239ac3afad60fe620d464d0532d794afbca90680dd1fd770eec11fc704f1d5a",
    "summa-fixed-partition":
        "6f5493e266216d5a957966e829eb766f4992066b5f7fae8a51370dece73c98df",
    "summa-fixed-slotted":
        "bebdcaa15058c8cc7d4b4c35df089357e777e5c4b0e7da49a1fabe2cb3b2bd75",
    "summa-gossip-partition":
        "28281999f871a7f6132fa586807e5057030137c617d16e7dde331a1aceffbc4c",
    "summa-oracle":
        "f70f8dad1e37f4f3a122fa48b8be4ac7c00afc445d86d4fbd9d0683fdbd438aa",
    "summa-oracle-after-finish":
        "dfc948c01e77302dd0fc03b0f900fe782a875ad361219a8809d3549c2a5ae762",
    "summa-oracle-mid-restart":
        "f70f8dad1e37f4f3a122fa48b8be4ac7c00afc445d86d4fbd9d0683fdbd438aa",
    "summa-oracle-no-faults":
        "dfc948c01e77302dd0fc03b0f900fe782a875ad361219a8809d3549c2a5ae762",
    "summa-phi-partition":
        "787216bd2b8db8f37ffa56d63b183da67e82c5b8a2cacbc0c407aa03ad164936",
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kernel", sorted(SPECS))
def test_output_digest_is_pinned(kernel, case):
    faulty, clean, lines = outputs(kernel, case)
    detection = faulty.detection
    false_deaths = 0 if detection is None else detection.false_deaths
    assert (faulty.incarnations, false_deaths) == SHAPES[case]
    for left, right in zip(faulty.answers, clean.answers):
        assert np.array_equal(left, right)
    assert sha(semantics(faulty)) == SEMANTIC[f"{kernel}-{case}"], (
        semantics(faulty))
    assert sha("\n".join(lines)) == GOLDEN[f"{kernel}-{case}"], (
        "\n".join(lines))
