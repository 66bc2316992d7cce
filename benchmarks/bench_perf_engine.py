"""Performance-regression benches for the library's own hot paths.

Not experiment reproductions: these guard the *simulator's* throughput,
so that model-fidelity work never quietly makes the experiment suite
unrunnable.

The engine-kernel benches run **paired**: once on the legacy binary-heap
event queue and once on the calendar-queue ("wheel") kernel that is now
the default, with the shared timeout pool cleared between modes so
neither run inherits the other's free objects.  A gate test at the end
of the module computes ``speedup_vs_heap`` from the min-of-rounds
timings and fails CI when the wheel underperforms:

* ``timeout_storm`` — drain-only throughput over a 200k-event
  same-instant batch (the tie-heavy shape the calendar queue is built
  for; creation happens in untimed setup so the measurement isolates
  queue discipline): must be **>= 10x** the heap.
* ``timeout_churn`` — create+run waves (allocation, scheduling and
  drain together).  The heap baseline shares the event-layer wins of
  this kernel generation (lazy callback lists, interned timeout names),
  so the wheel's edge here is the queue + pooling only: **>= 3x**.
* ``process_switching`` — generator context switches; dominated by
  ``generator.send`` which no queue can accelerate: **>= 1.3x**.
* every paired bench — the wheel must never be slower than the heap
  beyond noise (**>= 0.95x**).

Every run leaves a ``BENCH_perf_engine.json`` artifact at the repo root
(per-test stats, plus the ``speedup_vs_heap`` section with event counts
and wheel events/second) so CI runs can be archived and compared across
commits without scraping terminal output.
"""

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.health import DetectionSpec, HeartbeatMonitor
from repro.messaging import SUM, run_spmd
from repro.network import Fabric, FatTreeTopology, get_interconnect
from repro.obs import NULL_SPAN, NullObservability
from repro.scheduler import BatchSimulator, WorkloadGenerator, WorkloadParams, get_policy
from repro.sim import RandomStreams, Simulator, Store
from repro.sim.event import _TIMEOUT_POOL
from repro.xp import write_bench_artifact

#: Collected per-test numbers, written to BENCH_perf_engine.json by the
#: module-scoped fixture below once the last bench in this file finishes.
_ARTIFACT_RESULTS = {}

#: Min-of-rounds seconds per (bench, queue) pair, for the speedup gates.
_SPEEDUP_RAW = {}

#: The speedup_vs_heap artifact section, filled by the gate test.
_SPEEDUP_SECTION = {}

_ARTIFACT_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_perf_engine.json"

_STORM_EVENTS = 200_000
_CHURN_WAVES = 10
_CHURN_WAVE_EVENTS = 20_000
_SWITCH_EVENTS = 10_100


@pytest.fixture(autouse=True)
def _collect_benchmark_stats(request):
    """Harvest pytest-benchmark stats for the run artifact."""
    yield
    bench = getattr(request.node, "funcargs", {}).get("benchmark")
    stats = getattr(bench, "stats", None)
    inner = getattr(stats, "stats", stats)
    if inner is None:
        return
    entry = {}
    for field in ("mean", "min", "max", "stddev", "rounds"):
        value = getattr(inner, field, None)
        if value is not None:
            entry[field] = value
    if entry:
        _ARTIFACT_RESULTS[request.node.name] = entry


@pytest.fixture(scope="module", autouse=True)
def _write_artifact_fixture():
    """Write the BENCH_*.json artifact after the module's benches ran.

    The write is atomic (temp + rename, via
    :func:`repro.xp.artifacts.write_bench_artifact`) and *refused* when
    either expected section is missing — a ``-k``-filtered or partially
    failed run must not replace a previous complete artifact with a
    partial one that CI's validation step would then parse.
    """
    yield
    payload = {
        "benchmark_module": "bench_perf_engine",
        "units": "seconds",
        "results": dict(sorted(_ARTIFACT_RESULTS.items())),
        "speedup_vs_heap": dict(sorted(_SPEEDUP_SECTION.items())),
    }
    try:
        write_bench_artifact(_ARTIFACT_PATH, payload,
                             required=("results", "speedup_vs_heap"))
    except ValueError:
        pass  # partial run (e.g. -k subset): keep the old artifact


@pytest.fixture(params=["heap", "wheel"])
def queue(request):
    """Engine queue kind for the paired kernel benches.

    Clears the shared timeout pool on entry so the heap run is not
    taxed (GC-wise) by 200k pooled objects a previous wheel run left
    behind, and the wheel run cannot inherit a pre-warmed pool.
    """
    _TIMEOUT_POOL.clear()
    return request.param


def _record_pair(bench, queue_kind, benchmark):
    """Stash this run's min-of-rounds seconds for the gate test."""
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    _SPEEDUP_RAW[(bench, queue_kind)] = stats.min


def test_perf_timeout_storm(benchmark, queue):
    """Drain-only event throughput: one 200k-event same-instant batch.

    Creation happens in (untimed) setup; the measured region is purely
    the engine popping and delivering — the discipline the calendar
    queue replaces, hence the 10x gate computed by the gate test.
    """
    def setup():
        _TIMEOUT_POOL.clear()
        sim = Simulator(queue=queue)
        for _ in range(_STORM_EVENTS):
            sim.timeout(1.0)
        return (sim,), {}

    def drain(sim):
        sim.run()
        return sim.events_executed

    events = benchmark.pedantic(drain, setup=setup, rounds=5)
    assert events == _STORM_EVENTS
    _record_pair("timeout_storm", queue, benchmark)


def test_perf_timeout_churn(benchmark, queue):
    """Create+run waves: allocation, scheduling and drain together."""
    def setup():
        _TIMEOUT_POOL.clear()
        return (), {}

    def waves():
        sim = Simulator(queue=queue)
        for _wave in range(_CHURN_WAVES):
            for i in range(_CHURN_WAVE_EVENTS):
                sim.timeout(float(i % 97) * 1e-3)
            sim.run(until=sim.now + 1.0)
        return sim.events_executed

    events = benchmark.pedantic(waves, setup=setup, rounds=5)
    assert events == _CHURN_WAVES * _CHURN_WAVE_EVENTS
    _record_pair("timeout_churn", queue, benchmark)


def test_perf_process_switching(benchmark, queue):
    """Generator-process context switches: 100 processes x 100 yields."""
    def switchy():
        sim = Simulator(queue=queue)

        def worker(sim):
            for _ in range(100):
                yield sim.timeout(1.0)

        for _ in range(100):
            sim.process(worker(sim))
        sim.run()
        return sim.events_executed

    events = benchmark(switchy)
    assert events >= 10_000
    _record_pair("process_switching", queue, benchmark)


def test_perf_store_handoff(benchmark, queue):
    """Producer/consumer item handoffs through a Store."""
    def handoff():
        sim = Simulator(queue=queue)
        store = Store(sim)
        count = 5_000

        def producer(sim, store):
            for i in range(count):
                yield store.put(i)

        def consumer(sim, store):
            for _ in range(count):
                yield store.get()

        sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        sim.run()
        return count

    benchmark(handoff)
    _record_pair("store_handoff", queue, benchmark)


#: (bench, minimum wheel/heap ratio, delivered events) for the gates.
#: Rationale for the tiers is in the module docstring and DESIGN.md.
_SPEEDUP_GATES = (
    ("timeout_storm", 10.0, _STORM_EVENTS),
    ("timeout_churn", 3.0, _CHURN_WAVES * _CHURN_WAVE_EVENTS),
    ("process_switching", 1.3, _SWITCH_EVENTS),
    ("store_handoff", 0.95, None),
)


def test_perf_speedup_vs_heap_gates():
    """The wheel kernel must beat the heap by each bench's ratio gate.

    Runs after the paired benches (pytest executes this module in
    definition order) and fails CI when the calendar queue regresses —
    including the blanket rule that the wheel is never slower than the
    heap on *any* paired bench.
    """
    failures = []
    for bench, gate, events in _SPEEDUP_GATES:
        heap = _SPEEDUP_RAW.get((bench, "heap"))
        wheel = _SPEEDUP_RAW.get((bench, "wheel"))
        if heap is None or wheel is None:
            pytest.fail(
                f"{bench}: paired timings missing (ran with a -k filter "
                "that deselected the heap or wheel run?)")
        speedup = heap / wheel
        entry = {
            "heap_seconds": heap,
            "wheel_seconds": wheel,
            "speedup": speedup,
            "min_required": gate,
        }
        if events is not None:
            entry["events"] = events
            entry["wheel_events_per_second"] = events / wheel
            entry["heap_events_per_second"] = events / heap
        _SPEEDUP_SECTION[bench] = entry
        floor = min(gate, 0.95)
        if speedup < gate:
            failures.append(
                f"{bench}: wheel {speedup:.2f}x heap, gate {gate:.2f}x "
                f"(heap {heap * 1e3:.2f} ms, wheel {wheel * 1e3:.2f} ms)")
        elif speedup < floor:  # pragma: no cover - subsumed by the gate
            failures.append(f"{bench}: wheel slower than heap ({speedup:.2f}x)")
    assert not failures, "; ".join(failures)


def _pingpong_body(comm):
    """500 round trips through comm + fabric + mailboxes."""
    for _ in range(500):
        if comm.rank == 0:
            yield from comm.send(b"x", 1, tag=1)
            yield from comm.recv(1, tag=2)
        else:
            yield from comm.recv(0, tag=1)
            yield from comm.send(b"x", 0, tag=2)
    return None


def test_perf_messaging_pingpong(benchmark):
    """Full stack: 500 round trips through comm + fabric + mailboxes."""
    def pingpong():
        return run_spmd(2, _pingpong_body, technology="infiniband_4x")

    result = benchmark(pingpong)
    assert result.transfer_count == 1_000


def test_perf_allreduce_32(benchmark):
    """Collective machinery: 10 ring allreduces at 32 ranks."""
    def body(comm):
        for _ in range(10):
            yield from comm.allreduce(np.zeros(256), SUM, algorithm="ring")
        return None

    def collectives():
        return run_spmd(32, body, technology="infiniband_4x")

    benchmark(collectives)


def _site(frame):
    """``module.function`` of the code running in ``frame``."""
    return f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"


#: Where the fabric reads the flag: once per transfer, at the first
#: step of the transfer object both of its drivers share.
_FABRIC_FLAG_SITE = "repro.network.fabric._begin"


class _CountingNull(NullObservability):
    """Null observability that counts every disabled-path touch, each
    ``enabled`` read and ``span()`` call under the ``module.function``
    that made it."""

    def __init__(self):
        super().__init__()
        self.guard_reads = Counter()
        self.span_sites = Counter()
        self.span_calls = 0

    @property
    def enabled(self):
        self.guard_reads[_site(sys._getframe(1))] += 1
        return False

    def span(self, name, track=None, **attrs):
        self.span_calls += 1
        self.span_sites[_site(sys._getframe(1))] += 1
        return NULL_SPAN

    def fabric_touches(self):
        """``(flag reads, span() calls)`` made by the fabric module."""
        prefix = "repro.network.fabric."
        return (sum(count for site, count in self.guard_reads.items()
                    if site.startswith(prefix)),
                sum(count for site, count in self.span_sites.items()
                    if site.startswith(prefix)))


def _microbench(body, reps=20_000, rounds=5):
    """Best-of-rounds seconds per call of ``body(index)``."""
    best = float("inf")
    for _ in range(rounds):
        tick = time.perf_counter()
        for index in range(reps):
            body(index)
        best = min(best, time.perf_counter() - tick)
    return best / reps


def _site_cost(body):
    """Seconds of *extra* work per call of ``body`` over a no-op.

    Real instrumentation sites run the guard/span inline; the
    microbench wraps each in a function, so subtract the call+loop
    overhead of an empty body to price only the observability work.
    """
    def noop(index):
        pass

    return max(0.0, _microbench(body) - _microbench(noop))


def test_perf_null_obs_overhead_budget():
    """Disabled observability costs <=3% of the pingpong workload.

    Every instrumentation site leaves one of four things on the
    disabled path: an ``obs.enabled`` guard read at a comm-style site
    (pricing includes the null-span ``set``/``with`` it still
    executes), a bare read at the fabric's transfer object (which builds
    no span at all when the flag is off), a no-op ``span()`` call, or an
    engine flag check.  Count each through the full messaging stack,
    attributing every read to the function that made it, price one of
    each on the real null objects, and check that the sum fits the 3%
    budget.  This is what fails if someone puts real work (attr-dict
    building, string formatting, a null span per transfer) ahead of a
    guard.  The fabric's own touches are counted exactly: one flag
    read per transfer and no ``span()`` call.
    """
    # Wall time of the workload itself, best of three.
    workload = min(_timed_run() for _ in range(3))

    counter = _CountingNull()
    result = run_spmd(2, _pingpong_body, technology="infiniband_4x",
                      obs=counter)
    assert result.transfer_count == 1_000
    assert counter.fabric_touches() == (1_000, 0)
    assert counter.guard_reads[_FABRIC_FLAG_SITE] == 1_000
    # The plain-mode fast loop makes zero per-event observability
    # checks; what remains is the `_plain` test in `Simulator.timeout`
    # and the queue-kind branch in `_schedule_event`.  Price a
    # conservative ceiling of three flag checks per transfer plus one
    # per process so this budget also covers the instrumented loop.
    engine_checks = 3 * 1_000 + 2

    # The fabric reads the flag once per transfer and guards nothing
    # behind it; every other read guards a comm-style site.
    bare_reads = counter.guard_reads[_FABRIC_FLAG_SITE]
    guarded_reads = sum(counter.guard_reads.values()) - bare_reads

    obs = NullObservability()

    def bare_read(index):
        # The fabric's site: one read, then branches on the result.
        traced = obs.enabled
        span = NULL_SPAN if traced else None
        if span is not None:
            raise AssertionError

    def guarded_site(index):
        # A comm-style site: guard, then with/set on the shared NullSpan.
        span = NULL_SPAN if not obs.enabled else None
        with span.set(dest=index, tag=1):
            pass

    def span_site(index):
        # An unconditional span() with attrs.
        with obs.span("bench.touch", src=0, dst=1, nbytes=index):
            pass

    flag = False

    def engine_check(index):
        if flag:
            raise AssertionError

    overhead = (guarded_reads * _site_cost(guarded_site)
                + bare_reads * _site_cost(bare_read)
                + counter.span_calls * _site_cost(span_site)
                + engine_checks * _site_cost(engine_check))
    _ARTIFACT_RESULTS["test_perf_null_obs_overhead_budget"] = {
        "workload_seconds": workload,
        "disabled_path_overhead_seconds": overhead,
        "overhead_fraction": overhead / workload if workload else 0.0,
        "guard_reads": dict(sorted(counter.guard_reads.items())),
    }
    assert overhead <= 0.03 * workload, (
        f"disabled-observability budget blown: {guarded_reads} guards + "
        f"{bare_reads} bare reads + {counter.span_calls} null spans + "
        f"{engine_checks} flag checks = {overhead * 1e3:.2f} ms vs 3% "
        f"of {workload * 1e3:.2f} ms workload"
    )


def test_null_obs_heartbeats_touch_the_fabric_once_per_transfer():
    """Heartbeats run through ``Fabric.send``, the callback driver, and
    with observability off make the pingpong's counts: one fabric flag
    read per transfer begun, and no ``span()`` call."""
    counter = _CountingNull()
    sim = Simulator(obs=counter)
    fabric = Fabric(sim, FatTreeTopology(64),
                    get_interconnect("infiniband_4x"))
    monitor = HeartbeatMonitor(sim, fabric, 64,
                               DetectionSpec(heartbeat_interval=1e-4))
    monitor.start()
    sim.run(until=2e-3)
    # Heartbeats queue on the monitor host's link, so some are still in
    # flight at the end; every one sent has begun its transfer.
    assert monitor.heartbeats_sent > 1_000
    assert 0 < fabric.transfer_count < monitor.heartbeats_sent
    assert counter.fabric_touches() == (monitor.heartbeats_sent, 0)
    assert (counter.guard_reads[_FABRIC_FLAG_SITE]
            == monitor.heartbeats_sent)


def _timed_run():
    tick = time.perf_counter()
    run_spmd(2, _pingpong_body, technology="infiniband_4x")
    return time.perf_counter() - tick


def test_perf_batch_scheduler(benchmark):
    """Scheduler loop: 2000 jobs under EASY backfilling."""
    generator = WorkloadGenerator(
        WorkloadParams(max_nodes=128, offered_load=0.8),
        RandomStreams(seed=1))
    jobs = generator.generate(2_000)

    def schedule():
        return BatchSimulator(128, get_policy("easy")).run(jobs)

    result = benchmark(schedule)
    assert len(result.records) == 2_000
