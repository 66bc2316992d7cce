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
were computed when oracle and detected recovery still had separate
supervisor loops; the merged loop must reproduce all of them.
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
        "2415a56af0a0e654a5d6ac7a12f42b2106f872b23b3afcde99b855761f861a6b",
    "stencil2d-fixed-early":
        "13b5d6e67efc50931269a26a9f9a382e0ecabffeb7cabf2c203c787b6a457544",
    "stencil2d-fixed-mid-restart":
        "c37831d06a3cdfad3ef683ddd4a3b651fbc575550a15141fdcca1eef32fb3def",
    "stencil2d-fixed-partition":
        "5b6931c36430ed995288ba7e0d878a92efc772736629231e9d6f984d1a6be04e",
    "stencil2d-fixed-slotted":
        "b73f7708b4a79b24aacc08b99497480398551939ee87568be41ff6f5d4fbaecc",
    "stencil2d-gossip-partition":
        "53cb157995358108451bed66951adb754164c3731dccb62a7d484efbad31f137",
    "stencil2d-oracle":
        "d90e154e1b865669ebc14317f2605a98c763cf6512a45496f614d38aa1ccfab5",
    "stencil2d-oracle-after-finish":
        "ba532f7d4e6c1dbd8ef2fe0245f90e1370bcd0489b6371afe3a65cb7681a4529",
    "stencil2d-oracle-mid-restart":
        "9641b39b0744d0e4e49d1c94ece697aa4aad2890961398bc388f81e4661234f1",
    "stencil2d-oracle-no-faults":
        "9f1b9cd3535663492d55520c4eda6cd8ba0d49576e7ba1b26ed9e69ad2db1f6a",
    "stencil2d-phi-partition":
        "dddb15a4f26e2aed024bb8b44250a5f9a303ecf400d01993ca7de48146da8db1",
    "summa-fixed-after-finish":
        "324815ac190da49b5544a7a2a0f3c0bc08de06a3630299e48ac26e4d4294c351",
    "summa-fixed-early":
        "993873808368bcf56b805ea11c1e884a9beeeb72cb9f0655ccfeecf77f4ac60a",
    "summa-fixed-mid-restart":
        "c6a0ca696ec84a07c332f0cf0d34cdc1083dee792aed276eefe423de8976d42f",
    "summa-fixed-partition":
        "c0368d3648939494522764164613be8e726c9848da1c47629b85f99519baefee",
    "summa-fixed-slotted":
        "4d79d81241f23adcb16b7333112048b63388a0823f856ed4fafd261f14a96bbc",
    "summa-gossip-partition":
        "224fe8eed640a764d3c2bcd429de62dec1836d7003cfe3141b1dd862883c1df5",
    "summa-oracle":
        "7b99c0df9f7dda38c0277079f5378c45ab47f0d7473691d595c25c4a8daed68d",
    "summa-oracle-after-finish":
        "9849a3126bb5f1f305333981e575790e62f069e31a46f74d557f0a509bad3776",
    "summa-oracle-mid-restart":
        "5b0b4163e1c5409996087b834937ad642462bd774323e76f7c46f294fb92ac09",
    "summa-oracle-no-faults":
        "18947556c47bf90a5a0de45d432efaf4a43a3d9503c25b312591eb55644c9385",
    "summa-phi-partition":
        "884e2de6104bd89d7719b8574ce7099fb724a345e20ede93dbeab8a27322736f",
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
    assert sha("\n".join(lines)) == GOLDEN[f"{kernel}-{case}"], (
        "\n".join(lines))
