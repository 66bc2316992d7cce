"""Fixed pure-Python calibration kernel, timed in its own process.

The kernel is a miniature discrete-event loop: a binary heap of
timestamped entries, generator "processes" resumed with ``send``,
small-object allocation, dict lookups and float arithmetic -- the same
interpreter paths the simulator spends its time on, so a host that runs
the simulator slower also runs this kernel slower by a similar factor.

Run as a script it serves timing requests over stdin/stdout: each line
``run`` answers with one line holding the kernel's seconds.  The parent
benchmark process asks for a sample between workload operations, so no
workload state is ever resident in this process.
"""

import heapq
import sys
import time

#: Work per sample; sized for 30-60 ms on a 2-vCPU VM, short enough to
#: run between every slice of workload without doubling the run time.
PROCESSES = 64
STEPS = 320
#: The checksum a correct kernel returns; a different value means the
#: interpreter did different work and the timing is meaningless.
EXPECTED = PROCESSES * STEPS


class _Entry:
    __slots__ = ("when", "seq", "proc")

    def __init__(self, when, seq, proc):
        self.when = when
        self.seq = seq
        self.proc = proc

    def __lt__(self, other):
        if self.when != other.when:
            return self.when < other.when
        return self.seq < other.seq


def _body(ident, table):
    delay = 1.0 + (ident % 7) * 0.125
    for step in range(STEPS):
        key = (ident * 31 + step) % 97
        table[key] = table.get(key, 0) + 1
        delay = yield delay * (1.0 + (step & 3) * 0.25)


def kernel():
    """Run the fixed workload once; returns the number of resumptions."""
    table = {}
    queue = []
    seq = 0
    for ident in range(PROCESSES):
        proc = _body(ident, table)
        heapq.heappush(queue, _Entry(next(proc), seq, proc))
        seq += 1
    resumed = 0
    while queue:
        entry = heapq.heappop(queue)
        resumed += 1
        try:
            delay = entry.proc.send(1.0 + (entry.seq % 5) * 0.5)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, _Entry(entry.when + delay, seq, entry.proc))
    if sum(table.values()) != PROCESSES * STEPS:
        raise RuntimeError("calibration kernel lost work")
    return resumed


def sample():
    """Seconds of one kernel run (after checking its result)."""
    start = time.perf_counter()
    result = kernel()
    elapsed = time.perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError(f"calibration kernel returned {result}, "
                           f"expected {EXPECTED}")
    return elapsed


def serve():
    """Answer ``run`` requests on stdin with kernel seconds on stdout."""
    kernel()  # warm the code objects before the first timed sample
    for line in sys.stdin:
        if line.strip() != "run":
            break
        sys.stdout.write(f"{sample()!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
