"""The benchmark's own tests, at ``--size tiny``.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload is run once untraced and once traced.  The tests check
that every metric ``BENCHMARK.json`` names prints with its unit, that
the traced run's per-layer self times add up to its wall time, that the
two runs (same seed) print the same output digest and exact counts, and
that the benchmark refuses to report anything without the program's
sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _run(workload, trace, spans_dir, cwd=ROOT, script=None):
    script = script or HERE / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", "--spans-dir", str(spans_dir)],
        capture_output=True, text=True, cwd=str(cwd), timeout=170)


def _line(stdout, label):
    for line in stdout.splitlines():
        if line.strip().startswith(label):
            return line.split(None, 1)[1]
    raise AssertionError(f"no {label!r} line in:\n{stdout}")


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans")
    plain = _run(request.param, 0, spans)
    traced = _run(request.param, 1, spans)
    for proc in (plain, traced):
        assert proc.returncode == 0, proc.stderr
    return {"workload": request.param, "plain": plain.stdout,
            "traced": traced.stdout}


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_metric_prints_with_its_unit(runs):
    for key, group in (("plain", "end_to_end"), ("traced", "per_layer")):
        result = _result(runs[key])
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
        for metric in SPEC[group]:
            printed = result["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
            assert f"{metric['name']} " in runs[key]


def test_traced_self_times_add_up_to_wall_time(runs):
    metrics = {name: entry["value"]
               for name, entry in _result(runs["traced"])["metrics"].items()}
    layers = [name for name in metrics
              if name.endswith(".self_s")]
    total = sum(metrics[name] for name in layers)
    assert total == pytest.approx(metrics["bench.traced_wall_s"],
                                  rel=1e-6)
    assert metrics["bench.trace_overhead"] > 0


def test_digest_and_counts_repeat_across_runs(runs):
    for label in ("digest", "counts"):
        assert _line(runs["plain"], label) == _line(runs["traced"], label)


def test_layers_a_workload_bypasses_read_zero(runs):
    metrics = {name: entry["value"]
               for name, entry in _result(runs["traced"])["metrics"].items()}
    zero = {"batch_replay": ("sim.events", "network.transfers"),
            "detect_scale": ("messaging.ops", "jobs.log_calls",
                             "scheduler.select_calls")}
    for name in zero.get(runs["workload"], ()):
        assert metrics[name] == 0, name
    if runs["workload"] != "batch_replay":
        assert metrics["sim.events"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, tmp_path / "spans", cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


#: The open defect the gossip campaigns steer around (see NOTES.md).
GOSSIP_AFTER_OUTAGE = """
import repro.apps.campaigns
from repro.fault import CampaignSpec, LinkFaultSpec, NodeFaultSpec, \\
    run_campaign
from repro.health import DetectionSpec

report = run_campaign(CampaignSpec(
    kernel="summa", ranks=9, app_args=(("n", 12),),
    node_faults=(NodeFaultSpec(time=0.001891, rank=6),),
    link_faults=(LinkFaultSpec(start=0.000199, duration=0.001,
                               a=("h", 3), b=("s", 1)),),
    restart_seconds=2e-4, checkpoint_write_seconds=1e-4, seed=242745297,
    detection=DetectionSpec(detector="gossip", heartbeat_interval=1e-3,
                            suspect_after=3e-3, dead_after=6e-3)))
assert report.answers_match
"""


@pytest.mark.xfail(strict=True, reason="open defect: gossip-driven "
                   "recovery stalls when a crash follows a host-link "
                   "outage, until the event budget raises")
def test_gossip_campaign_recovers_after_a_link_outage():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", GOSSIP_AFTER_OUTAGE],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-800:]
