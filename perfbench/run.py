"""Drift-calibrated benchmark of the ``repro`` simulator, layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload detect_scale --seed 1 \\
        --seconds 18 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``detect_scale`` -- central heartbeats at 10^4 nodes and SWIM gossip,
  with crashes and a one-way blackhole around host 0;
* ``campaigns`` -- fault campaigns of ``stencil2d`` and ``summa`` under
  oracle, fixed, phi and gossip detection, plus jobs control-plane
  campaigns;
* ``batch_replay`` -- one SWF trace through the three batch simulators
  under FCFS, EASY and conservative backfill.

A run starts a calibration process (``calib.py``) and workload
processes (``worker.py``), each a fresh single-threaded interpreter, and
never lets two of them work at once.  Set-up is sampled in several
processes; then one workload process executes a fixed number of passes
over the workload's operations (about ``--seconds`` of them at the
reference speed).  Long operations are cut into slices; the calibration
kernel runs after every slice, and each slice's host seconds are scaled
by ``REFERENCE_CALIB_S`` over the mean of the kernel times just before
and after it, so drift in machine speed mostly cancels.  ``wall_s`` sums
each slice's fastest pass: host slowdowns only ever add time.

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` runs one untraced and one traced pass
and prints the per-layer metrics.  Every operation checks its output;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is non-zero when any
operation failed or the outputs did not repeat exactly.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Kernel seconds that define one calibrated second: the median kernel
#: time measured when the benchmark was written (2-vCPU VM, CPython
#: 3.11).  A host that runs the kernel in this time reports raw seconds.
REFERENCE_CALIB_S = 0.03
#: The seed the benchmark is tuned and reported on (NOTES.md names the
#: held-out seed for confirming later claims).
DEFAULT_SEED = 1
#: Set-up is measured in this many fresh processes per run (median),
#: each calibrated by the mean of this many kernel runs on either side.
SETUP_SAMPLES = 3
SETUP_CALIB_SAMPLES = 4
#: Calibrated seconds of one pass (operations plus the kernel samples
#: between their slices) on the reference host; ``--seconds`` is
#: divided by these to fix the number of passes.
PASS_SECONDS = {"detect_scale": 11.5, "campaigns": 2.9,
                "batch_replay": 1.9}
#: A run that has not finished by now is stopped and fails.
WATCHDOG_S = 150

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("setup.import_s", "s"), ("setup.build_s", "s"),
    ("setup.import.numpy_s", "s"), ("setup.import.scipy_s", "s"),
    ("setup.import.networkx_s", "s"), ("setup.import.repro_s", "s"),
    ("setup.import.other_s", "s"),
    ("sim.events", "count"), ("sim.self_s", "s"),
    ("sim.ns_per_event", "ns"), ("sim.run_calls", "count"),
    ("sim.processes", "count"), ("sim.timeouts", "count"),
    ("obs.calls", "count"), ("obs.self_s", "s"),
    ("network.transfers", "count"), ("network.bytes", "B"),
    ("network.self_s", "s"), ("network.drops", "count"),
    ("network.reroutes", "count"), ("network.delivered_ratio", "ratio"),
    ("health.self_s", "s"), ("health.messages", "count"),
    ("health.messages_lost", "count"), ("health.transitions", "count"),
    ("health.suspicions", "count"), ("health.refutations", "count"),
    ("health.true_suspicion_ratio", "ratio"),
    ("health.degraded_run_s", "s"),
    ("messaging.self_s", "s"), ("messaging.ops", "count"),
    ("messaging.retries", "count"), ("messaging.op_timeouts", "count"),
    ("messaging.first_try_ratio", "ratio"),
    ("fault.self_s", "s"), ("fault.incarnations", "count"),
    ("fault.commits", "count"), ("fault.replay_s", "s"),
    ("fault.goodput", "ratio"),
    ("jobs.self_s", "s"), ("jobs.log_calls", "count"),
    ("jobs.grants", "count"), ("jobs.requeues", "count"),
    ("jobs.fencing_rejections", "count"),
    ("jobs.completed_per_grant", "ratio"),
    ("apps.self_s", "s"),
    ("scheduler.self_s", "s"), ("scheduler.select_calls", "count"),
    ("scheduler.select_s", "s"), ("scheduler.loop_s.batch", "s"),
    ("scheduler.loop_s.faulty", "s"), ("scheduler.loop_s.degraded", "s"),
    ("scheduler.restarts", "count"),
    ("scheduler.goodput_utilization", "ratio"),
    ("bench.self_s", "s"),
    ("bench.raw_wall_s", "s"), ("bench.raw_setup_s", "s"),
    ("bench.calib_s", "s"), ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead", "ratio"),
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> Dict[str, str]:
    """Environment of every child: the checkout's sources, one thread."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # Same dict and set layouts in every run: steadier timings.
    env["PYTHONHASHSEED"] = "0"
    return env


class Calibrator:
    """The calibration kernel's own process."""

    def __init__(self, env: Dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calib.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env)
        self.samples: List[float] = []

    def sample(self) -> float:
        """Seconds of one kernel run."""
        assert self.proc.stdin is not None and self.proc.stdout is not None
        try:
            self.proc.stdin.write("run\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise BenchmarkError(f"calibration process died ({exc})")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError("calibration process died")
        value = float(line)
        self.samples.append(value)
        return value

    def close(self) -> None:
        """Stop the process and wait for it."""
        _stop(self.proc)


class Worker:
    """One workload process speaking the ``@pb`` line protocol."""

    def __init__(self, args: argparse.Namespace, env: Dict[str, str], *,
                 setup_only: bool = False,
                 stderr_path: Optional[Path] = None) -> None:
        command = [sys.executable]
        if stderr_path is not None:
            command += ["-X", "importtime"]
        command += [str(HERE / "worker.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--size", args.size,
                    "--spans-dir", str(args.spans_dir)]
        if setup_only:
            command.append("--setup-only")
        self._stderr = (open(stderr_path, "w")
                        if stderr_path is not None else None)
        self.started = time.monotonic()
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self._stderr, text=True,
                                     env=env, cwd=str(ROOT))

    def read(self, kind: str) -> Dict[str, Any]:
        """The next ``@pb`` message, which must be of ``kind``."""
        assert self.proc.stdout is not None
        while True:
            line = self.proc.stdout.readline()
            if not line:
                code = self.proc.wait()
                raise BenchmarkError(f"workload process exited ({code}) "
                                     f"while {kind!r} was expected")
            if not line.startswith("@pb "):
                sys.stderr.write(line)
                continue
            _, got, payload = line.rstrip("\n").split(" ", 2)
            if got != kind:
                raise BenchmarkError(f"expected {kind!r}, got {got!r}")
            return json.loads(payload)

    def command(self, text: str, kind: str) -> Dict[str, Any]:
        """Send one command and wait for its answer."""
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write(text + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise BenchmarkError(f"workload process died before {text!r} "
                                 f"({exc})")
        return self.read(kind)

    def close(self) -> None:
        """Wait for the process to end (killing it if it will not)."""
        _stop(self.proc)
        if self._stderr is not None:
            self._stderr.close()


def _stop(proc: subprocess.Popen) -> None:
    """End a child: close its stdin (it exits at end of input), kill it
    if it has not exited 10 s later, and wait for it."""
    try:
        if proc.stdin is not None:
            proc.stdin.close()
    except OSError:  # it already died with unread input
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _calibrated(raw: float, before: float, after: float) -> float:
    return raw * REFERENCE_CALIB_S / ((before + after) / 2.0)


class Run:
    """The state of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.env = _child_env()
        self.calib = Calibrator(self.env)
        self.last = 0.0
        self.calibrate(SETUP_CALIB_SAMPLES)
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.first_pass: Optional[List[Dict[str, Any]]] = None

    def calibrate(self, samples: int = 1) -> Tuple[float, float]:
        """Fresh kernel time (the mean of ``samples`` runs); returns
        (previous, fresh)."""
        fresh = sum(self.calib.sample() for _ in range(samples)) / samples
        before, self.last = self.last, fresh
        return before, self.last

    def setup_sample(self, setup_only: bool,
                     stderr_path: Optional[Path] = None
                     ) -> Tuple[Worker, Dict[str, Any], float, float]:
        """Start a workload process and time its set-up; returns the
        worker, its ready message, raw and calibrated seconds."""
        worker = Worker(self.args, self.env, setup_only=setup_only,
                        stderr_path=stderr_path)
        try:
            ready = worker.read("ready")
        except BenchmarkError:
            worker.close()
            raise
        raw = ready["t_ready"] - worker.started
        if setup_only:
            worker.close()
        # Set-up is one stretch of about a second and a half, over which
        # host speed flips several times: average a few kernel runs.
        before, after = self.calibrate(SETUP_CALIB_SAMPLES)
        return worker, ready, raw, _calibrated(raw, before, after)

    def record(self, results: List[Dict[str, Any]], label: str) -> None:
        """Count operations and check outputs repeat exactly."""
        for result in results:
            self.attempted += 1
            if not result["ok"]:
                self.failed += 1
        if self.first_pass is None:
            self.first_pass = results
            return
        for first, again in zip(self.first_pass, results):
            if (first["digest"] != again["digest"]
                    or first["counts"] != again["counts"]):
                self.mismatches.append(f"{label}: {again['name']} did not "
                                       "repeat its outputs or counts")

    def timed_pass(self, worker: Worker
                   ) -> Tuple[List[float], float, List[Dict[str, Any]]]:
        """Execute every slice of a pass, sampling the kernel after each;
        returns the calibrated seconds of each slice, the raw seconds of
        the pass and the finished operations."""
        slices: List[float] = []
        raw_total = 0.0
        results = []
        while True:
            reply = worker.command("step", "step")
            before, after = self.calibrate()
            slices.append(_calibrated(reply["raw_s"], before, after))
            raw_total += reply["raw_s"]
            if reply["done"]:
                results.append(reply)
            if reply["pass_done"]:
                return slices, raw_total, results

    def close(self) -> None:
        """Stop the calibration process."""
        self.calib.close()


def _digest(results: List[Dict[str, Any]]) -> str:
    text = json.dumps([[r["name"], r["digest"]] for r in results])
    return hashlib.sha256(text.encode()).hexdigest()


def _counts(results: List[Dict[str, Any]]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for result in results:
        for key, value in result["counts"].items():
            total[key] = total.get(key, 0) + value
    return dict(sorted(total.items()))


def _passes(workload: str, seconds: float) -> int:
    """Passes that fill about ``seconds`` at the reference speed.  The
    count depends only on the arguments, so two commits are measured
    with the same estimator."""
    return max(2, round(seconds / PASS_SECONDS[workload]))


def _fastest(slices: List[List[float]]) -> float:
    """Sum over slices of each slice's fastest calibrated pass."""
    if len({len(s) for s in slices}) != 1:
        raise BenchmarkError("passes sliced the workload differently")
    return sum(min(column) for column in zip(*slices))


def _untraced(run: Run) -> Dict[str, Any]:
    args = run.args
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        _, _, raw, cal = run.setup_sample(setup_only=True)
        setups.append((raw, cal))
    worker, ready, raw, cal = run.setup_sample(setup_only=False)
    setups.append((raw, cal))
    setup_kernel = statistics.median(run.calib.samples)
    passes = _passes(args.workload, args.seconds)
    slices, raws = [], []
    try:
        for index in range(passes):
            if index:
                worker.command("prepare", "prepared")
            calibrated, raw_s, results = run.timed_pass(worker)
            run.record(results, f"pass {index + 1}")
            slices.append(calibrated)
            raws.append(raw_s)
        rss_kb = worker.command("finish", "finish")["maxrss_kb"]
    finally:
        worker.close()
    metrics = {
        "wall_s": _fastest(slices),
        "setup_s": statistics.median([c for _, c in setups]),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    first = run.first_pass or []
    print(f"perfbench {args.workload} seed={args.seed} size={args.size}: "
          f"{ready['ops']} ops in {len(slices[0])} slices x {passes} "
          f"passes")
    print(f"  wall_s       {metrics['wall_s']:.4f} s  (raw pass median "
          f"{statistics.median(raws):.4f} s, calibrated pass median "
          f"{statistics.median([sum(s) for s in slices]):.4f} s; calibration "
          f"kernel median {statistics.median(run.calib.samples):.4f} s, min "
          f"{min(run.calib.samples):.4f} s, reference "
          f"{REFERENCE_CALIB_S} s)")
    print(f"  setup_s      {metrics['setup_s']:.4f} s  (raw median "
          f"{statistics.median([r for r, _ in setups]):.4f} s of "
          f"{len(setups)} processes; calibration kernel median "
          f"{setup_kernel:.4f} s; import {ready['import_s']:.4f} s, build "
          f"{ready['build_s']:.4f} s)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB")
    print(f"  ops_failed   {run.failed}/{run.attempted} ops")
    print(f"  digest       {_digest(first)}")
    print(f"  counts       {json.dumps(_counts(first))}")
    return metrics


def _echo_errors(path: Path) -> None:
    """Copy what the traced worker wrote to stderr, other than its
    ``-X importtime`` lines (failed checks, tracebacks), to ours."""
    with open(path) as handle:
        for line in handle:
            if not line.startswith("import time:"):
                sys.stderr.write(line)


def _import_seconds(path: Path) -> Dict[str, float]:
    """Self import time per top-level package from ``-X importtime``."""
    buckets = {"numpy": 0.0, "scipy": 0.0, "networkx": 0.0, "repro": 0.0,
               "other": 0.0}
    with open(path) as handle:
        for line in handle:
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            top = fields[2].strip().split(".")[0]
            bucket = top if top in buckets else "other"
            buckets[bucket] += int(fields[0]) / 1e6
    return buckets


def _ratio(numerator: float, denominator: float) -> float:
    """Useful outcomes over attempts; zero when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def _traced(run: Run) -> Dict[str, Any]:
    args = run.args
    args.spans_dir.mkdir(parents=True, exist_ok=True)
    stderr_path = args.spans_dir / f"importtime-{args.workload}.txt"
    worker, ready, raw_setup, cal_setup = run.setup_sample(
        setup_only=False, stderr_path=stderr_path)
    setup_factor = cal_setup / raw_setup
    try:
        slices, untraced_raw, results = run.timed_pass(worker)
        untraced_cal = sum(slices)
        run.record(results, "untraced pass")
        worker.command("trace", "traced")
        before = run.calib.sample()
        traced = worker.command("tracepass", "tracepass")
        after = run.calib.sample()
        run.record(traced["ops"], "traced pass")
        worker.command("finish", "finish")
    finally:
        worker.close()
        _echo_errors(stderr_path)
    summary = traced["summary"]
    factor = REFERENCE_CALIB_S / ((before + after) / 2.0)
    layer = {name: seconds * factor
             for name, seconds in summary["layer_self_s"].items()}
    by_name = summary["by_name"]

    def calls(predicate) -> int:
        return sum(entry["calls"] for name, entry in by_name.items()
                   if predicate(name, entry))

    def span_s(name: str) -> float:
        return by_name.get(name, {}).get("span_s", 0.0) * factor

    def self_s(name: str) -> float:
        return by_name.get(name, {}).get("self_s", 0.0) * factor

    counts = _counts(traced["ops"])

    def count(key: str) -> int:
        return counts.get(key, 0)

    imports = _import_seconds(stderr_path)
    transfers_started = calls(lambda n, e: n in ("Fabric.transfer",
                                                 "Fabric.transfer_ex"))
    suspicions = count("health.suspicions")
    traced_cal = summary["wall_s"] * factor
    metrics = {
        "setup.import_s": ready["import_s"] * setup_factor,
        "setup.build_s": ready["build_s"] * setup_factor,
        **{f"setup.import.{key}_s": value * setup_factor
           for key, value in imports.items()},
        "sim.events": count("sim.events"),
        "sim.self_s": layer["sim"],
        "sim.ns_per_event": _ratio(layer["sim"] * 1e9, count("sim.events")),
        "sim.run_calls": calls(lambda n, e: n == "Simulator.run"),
        "sim.processes": calls(lambda n, e: n == "Simulator.process"),
        "sim.timeouts": calls(lambda n, e: n == "Simulator.timeout"),
        "obs.calls": calls(lambda n, e: e["layer"] == "obs"),
        "obs.self_s": layer["obs"],
        "network.transfers": count("network.transfers"),
        "network.bytes": count("network.bytes"),
        "network.self_s": layer["network"],
        "network.drops": count("network.drops"),
        "network.reroutes": count("network.reroutes"),
        "network.delivered_ratio": _ratio(count("network.transfers"),
                                          transfers_started),
        "health.self_s": layer["health"],
        "health.messages": count("health.messages"),
        "health.messages_lost": count("health.messages_lost"),
        "health.transitions": count("health.transitions"),
        "health.suspicions": suspicions,
        "health.refutations": count("health.refutations"),
        "health.true_suspicion_ratio": _ratio(
            suspicions - count("health.false_suspicions"), suspicions),
        "health.degraded_run_s": span_s("DegradedBatchSimulator.run"),
        "messaging.self_s": layer["messaging"],
        "messaging.ops": calls(lambda n, e: n.startswith("Communicator.")),
        "messaging.retries": count("messaging.retries"),
        "messaging.op_timeouts": count("messaging.op_timeouts"),
        "messaging.first_try_ratio": _ratio(
            count("messaging.acks"),
            count("messaging.acks") + count("messaging.retries")),
        "fault.self_s": layer["fault"],
        "fault.incarnations": count("fault.incarnations"),
        "fault.commits": count("fault.commits"),
        "fault.replay_s": span_s("run_once[clean]"),
        "fault.goodput": _ratio(count("fault.clean_elapsed_ns"),
                                count("fault.faulty_elapsed_ns")),
        "jobs.self_s": layer["jobs"],
        "jobs.log_calls": calls(lambda n, e: n.startswith("JobLog.")),
        "jobs.grants": count("jobs.grants"),
        "jobs.requeues": count("jobs.requeues"),
        "jobs.fencing_rejections": count("jobs.fencing_rejections"),
        "jobs.completed_per_grant": _ratio(count("jobs.completed"),
                                           count("jobs.grants")),
        "apps.self_s": layer["apps"],
        "scheduler.self_s": layer["scheduler"],
        "scheduler.select_calls": calls(
            lambda n, e: n.endswith(".select")),
        "scheduler.select_s": sum(span_s(n) for n in by_name
                                  if n.endswith(".select")),
        "scheduler.loop_s.batch": self_s("BatchSimulator.run"),
        "scheduler.loop_s.faulty": self_s("FaultyBatchSimulator.run"),
        "scheduler.loop_s.degraded": self_s("DegradedBatchSimulator.run"),
        "scheduler.restarts": count("scheduler.restarts"),
        "scheduler.goodput_utilization": _ratio(
            count("scheduler.goodput_node_s"),
            count("scheduler.work_node_s")),
        "bench.self_s": layer["bench"],
        "bench.raw_wall_s": untraced_raw,
        "bench.raw_setup_s": raw_setup,
        "bench.calib_s": statistics.median(run.calib.samples),
        "bench.traced_wall_s": traced_cal,
        "bench.trace_overhead": traced_cal / untraced_cal,
    }
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"traced: {summary['spans']} spans in {summary['spans_file']}")
    print(f"  untraced pass {untraced_cal:.4f} s, traced pass "
          f"{traced_cal:.4f} s (overhead "
          f"x{metrics['bench.trace_overhead']:.2f})")
    print(f"  digest       {_digest(traced['ops'])}")
    print(f"  counts       {json.dumps(counts)}")
    return metrics


def _render(metrics: Dict[str, Any], units: Tuple[Tuple[str, str], ...]
            ) -> Dict[str, Dict[str, Any]]:
    rendered = {}
    for name, unit in units:
        value = metrics[name]
        print(f"  {name:<32} {value!r} {unit}")
        rendered[name] = {"value": value, "unit": unit}
    return rendered


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Drift-calibrated layer benchmark of repro.")
    parser.add_argument("--workload", required=True,
                        choices=("detect_scale", "campaigns",
                                 "batch_replay"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same operations at toy scale "
                             "(for the benchmark's own tests)")
    parser.add_argument("--spans-dir", type=Path,
                        default=ROOT / ".perfbench",
                        help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    def on_alarm(signum, frame):
        raise BenchmarkError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_S)
    run: Optional[Run] = None
    try:
        run = Run(args)
        if args.trace:
            metrics = _render(_traced(run), PER_LAYER)
        else:
            metrics = _render(_untraced(run), END_TO_END)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        if run is not None:
            run.close()
    for problem in run.mismatches:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = run.failed == 0 and not run.mismatches
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
