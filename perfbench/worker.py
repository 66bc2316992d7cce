"""The workload process: one workload, one seed, commands on stdin.

Started by ``run.py`` in a fresh interpreter.  It imports the program
and builds the workload's inputs (the set-up the benchmark times), says
``ready``, then executes commands one at a time, answering each with a
single ``@pb`` line of JSON on stdout:

* ``step`` -- execute the next slice of the prepared pass (timed); an
  operation is one slice, or several when it yields between slices;
* ``prepare`` -- build fresh inputs for another pass (not timed);
* ``trace`` -- install the span wrappers and prepare a traced pass;
* ``tracepass`` -- execute every operation under the tracer;
* ``finish`` -- report peak memory and exit.

Only the parent reads the clock between commands, so the calibration
kernel (in its own process) never runs while this one is working.
"""

import argparse
import inspect
import json
import os
import resource
import sys
import time
import traceback


def _emit(kind, payload):
    sys.stdout.write(f"@pb {kind} {json.dumps(payload)}\n")
    sys.stdout.flush()


def _steps(execute):
    """Run one operation as a generator of slices; returns ``verify``."""
    out = execute()
    if inspect.isgenerator(out):
        out = yield from out
    return out


class Session:
    """One workload's operations and the state between commands."""

    def __init__(self, workloads, name, seed, size):
        self.workloads = workloads
        self.ops = workloads.build(name, seed, size)
        self.prepared = []
        self.cursor = 0
        self.active = None
        self.tracer = None
        self.step_nid = -1
        self.name = name
        self.seed = seed

    def prepare(self):
        """Build every operation's inputs, collecting what they
        construct, and rewind to the first operation."""
        prepared = []
        for op in self.ops:
            bag = self.workloads.Bag()
            with self.workloads.CAPTURE.collecting(bag):
                prepared.append((op.prepare(), bag))
        self.prepared = prepared
        self.cursor = 0
        self.active = None

    def step(self):
        """Execute the next slice of the pass; time it, and check and
        count the operation when it completes."""
        index = self.cursor
        execute, bag = self.prepared[index]
        if self.active is None:
            self.active = _steps(execute)
        reply = {"op": index, "name": self.ops[index].name}
        tracer = self.tracer
        with self.workloads.CAPTURE.collecting(bag):
            span = tracer.open(self.step_nid) if tracer else None
            start = time.perf_counter()
            try:
                next(self.active)
                verify = None
            except StopIteration as stop:
                verify = stop.value
            except Exception:  # counted as a failed operation
                traceback.print_exc()
                verify = traceback.format_exc(limit=3)
            reply["raw_s"] = time.perf_counter() - start
            if span is not None:
                tracer.close(span)
        reply["done"] = self.active.gi_frame is None
        if reply["done"]:
            reply.update(self._finish(verify, bag))
            self.prepared[index] = (None, bag)
            self.active = None
            self.cursor += 1
        reply["pass_done"] = self.cursor == len(self.ops)
        return reply

    def _finish(self, verify, bag):
        """Check a completed operation (untimed) and count its work."""
        if isinstance(verify, str):  # the traceback of an exception
            return {"ok": False, "problems": [verify], "digest": None,
                    "counts": {}}
        result = verify()
        counts = bag.counts()
        for key, value in result.counts.items():
            counts[key] = counts.get(key, 0) + value
        bag.sims.clear()
        bag.fabrics.clear()
        for problem in result.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {"ok": result.ok, "problems": result.problems,
                "digest": self.workloads.canonical_digest(result.out),
                "counts": counts}

    def trace(self):
        """Install the span wrappers, then prepare under them."""
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        self.step_nid = tracer.name_id("bench.step", "bench")
        root = tracer.open(tracer.name_id("bench.prepare", "bench"))
        self.prepare()
        tracer.close(root)
        self.tracer = tracer

    def trace_pass(self, spans_dir):
        """A pass with every slice under a ``bench.step`` root span;
        returns the finished operations and the span summary."""
        tracer = self.tracer
        first, since = tracer.mark()
        results = []
        while True:
            reply = self.step()
            if reply["done"]:
                results.append(reply)
            if reply["pass_done"]:
                break
        summary = tracer.summarize(first, self.step_nid, since)
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir,
                            f"spans-{self.name}-seed{self.seed}.npz")
        tracer.dump(path)
        summary["spans_file"] = path
        return {"ops": results, "summary": summary}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-dir", default=".perfbench")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro  # noqa: F401  (the import is what set-up times)
    import workloads

    import_s = time.perf_counter() - start
    start = time.perf_counter()
    workloads.CAPTURE.install()
    session = Session(workloads, args.workload, args.seed, args.size)
    session.prepare()
    build_s = time.perf_counter() - start
    _emit("ready", {"t_ready": time.monotonic(), "import_s": import_s,
                    "build_s": build_s, "ops": len(session.ops)})
    if args.setup_only:
        return 0

    for line in sys.stdin:
        command = line.split()
        if not command:
            continue
        if command[0] == "step":
            _emit("step", session.step())
        elif command[0] == "prepare":
            start = time.perf_counter()
            session.prepare()
            _emit("prepared", {"raw_s": time.perf_counter() - start})
        elif command[0] == "trace":
            session.trace()
            _emit("traced", {})
        elif command[0] == "tracepass":
            _emit("tracepass", session.trace_pass(args.spans_dir))
        elif command[0] == "finish":
            usage = resource.getrusage(resource.RUSAGE_SELF)
            _emit("finish", {"maxrss_kb": usage.ru_maxrss})
            return 0
        else:
            raise SystemExit(f"unknown command {line!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
