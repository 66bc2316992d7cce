"""Per-layer spans for the traced run, installed from outside the program.

:func:`install` wraps each layer's public entry points with span
recorders:

* ``sim`` -- ``Simulator.run``, ``process`` and ``timeout``;
* ``network`` -- ``Fabric.transfer`` and ``transfer_ex``;
* ``messaging`` -- the ``Communicator`` point-to-point and collective
  methods;
* ``health`` -- ``build_monitor``, ``Membership.transition`` and every
  ``FailureDetector.assess``;
* ``fault`` -- ``run_campaign``, its faulty and clean runs, and the
  ``CheckpointVault`` methods;
* ``apps`` -- the rank bodies of every registered campaign kernel;
* ``jobs`` -- ``run_jobs_campaign`` and the ``JobLog`` public methods;
* ``scheduler`` -- the three batch simulators' ``run`` and every
  ``SchedulingPolicy.select``;
* ``obs`` -- the ``NULL_OBS`` span, instant and metrics API.

Generator entry points get one span per resumption.  Every generator
handed to ``Simulator.process`` is wrapped the same way and attributed
to the layer of the module that defines it, so protocol code running in
simulated processes (heartbeat senders, gossip probers, rank bodies,
job-service loops) is charged to its own layer rather than to the
engine that resumes it.

Spans carry a name, start, end and parent; they are kept in flat arrays
in memory and written out once, by :meth:`Tracer.dump`.  A layer's self
time is the time of its spans minus the time covered by their children,
so the self times of all layers add up to the root span's duration.
"""

import functools
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["LAYERS", "Tracer", "install", "layer_of_module"]

#: The program's layers, as named by ``repro.lint.rules.LAYERS``, plus
#: ``bench`` (this benchmark's own code) and ``other`` (any remaining
#: ``repro`` package; none runs in these workloads, so it is not
#: reported, and the self-test's sum check fails if one ever does).
LAYERS = ("sim", "obs", "network", "health", "messaging", "fault", "jobs",
          "apps", "scheduler", "other", "bench")


def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module belongs to."""
    parts = module.split(".")
    if parts[0] != "repro":
        return "bench"
    if len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return "other"


class Tracer:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: List[int] = [-1]
        self._resume_code = self._resumptions.__code__

    def name_id(self, name: str, layer: str) -> int:
        """Intern a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
        return nid

    # -- recording -------------------------------------------------------

    def open(self, nid: int) -> int:
        """Open a span; returns its index."""
        index = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        """Close the innermost open span."""
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    def call_wrapper(self, fn: Callable, nid: int) -> Callable:
        """``fn`` with one span per call."""
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack, calls, clock = self.stack, self.calls, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            index = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def generator_wrapper(self, fn: Callable, nid: int) -> Callable:
        """A generator function whose generators record one span per
        resumption."""
        calls, resumptions = self.calls, self._resumptions

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            return resumptions(fn(*args, **kwargs), nid)

        return traced

    def _resumptions(self, gen: Any, nid: int):
        """Drive ``gen``, forwarding sends and throws, one span around
        each resumption."""
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack, clock = self.stack, time.perf_counter_ns
        value = None
        thrown: Optional[BaseException] = None
        while True:
            index = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                if thrown is None:
                    item = gen.send(value)
                else:
                    exc, thrown = thrown, None
                    item = gen.throw(exc)
            except StopIteration as stop:
                end[index] = clock()
                stack.pop()
                return stop.value
            except BaseException:
                end[index] = clock()
                stack.pop()
                raise
            end[index] = clock()
            stack.pop()
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                thrown = exc
                value = None

    def wrap_process_body(self, gen: Any) -> Any:
        """Wrap a process generator, attributed to its module's layer."""
        code = getattr(gen, "gi_code", None)
        if code is None or code is self._resume_code:
            return gen
        frame = gen.gi_frame
        module = frame.f_globals.get("__name__", "") if frame else ""
        nid = self.name_id(f"{module}:{gen.__qualname__}",
                           layer_of_module(module))
        wrapped = self._resumptions(gen, nid)
        # Process names come from the generator's __name__.
        wrapped.__name__ = gen.__name__
        wrapped.__qualname__ = gen.__qualname__
        return wrapped

    # -- analysis --------------------------------------------------------

    def mark(self) -> Tuple[int, List[int]]:
        """A position in the span store plus a copy of the call counts."""
        return len(self.name_of), list(self.calls)

    def summarize(self, first: int, root_nid: int,
                  since: List[int]) -> Dict[str, Any]:
        """Self time per layer and per name, span time and calls per
        name, over the spans recorded from index ``first`` on that sit
        under a top-level span named ``root_nid``.  ``wall_s`` is the
        total time of those top-level spans."""
        hi = len(self.name_of)
        names = np.frombuffer(self.name_of, dtype=np.int32)[first:hi]
        rel = (np.frombuffer(self.parent, dtype=np.int32)[first:hi]
               .astype(np.int64) - first)
        dur = (np.frombuffer(self.end, dtype=np.int64)[first:hi]
               - np.frombuffer(self.start, dtype=np.int64)[first:hi])
        # Each span's top-level ancestor, by pointer jumping (parents
        # are recorded before their children).
        top = np.where(rel >= 0, rel, np.arange(len(rel)))
        while True:
            up = np.where(rel[top] >= 0, rel[top], top)
            if np.array_equal(up, top):
                break
            top = up
        keep = (rel[top] < 0) & (names[top] == root_nid)
        names, rel, dur = names[keep], rel[keep], dur[keep]
        index = np.cumsum(keep) - 1  # old position -> kept position
        inside = rel >= 0
        child = np.bincount(index[rel[inside]], weights=dur[inside],
                            minlength=len(dur))
        self_ns = dur - child
        count = len(self.names)
        self_by_name = np.bincount(names, weights=self_ns, minlength=count)
        span_by_name = np.bincount(names, weights=dur, minlength=count)
        spans_by_name = np.bincount(names, minlength=count)
        layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        by_name: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            layer_self[self.layers[nid]] += self_by_name[nid] / 1e9
            calls = self.calls[nid] - (since[nid] if nid < len(since)
                                       else 0)
            by_name[name] = {
                "layer": self.layers[nid],
                "self_s": self_by_name[nid] / 1e9,
                "span_s": span_by_name[nid] / 1e9,
                "spans": int(spans_by_name[nid]),
                "calls": calls,
            }
        wall = float(dur[rel < 0].sum()) / 1e9
        return {"wall_s": wall, "spans": int(len(dur)),
                "layer_self_s": layer_self, "by_name": by_name}

    def dump(self, path: str) -> None:
        """Write every recorded span (name, layer, start, end, parent)."""
        np.savez_compressed(
            path,
            names=np.array(self.names), layers=np.array(self.layers),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64))


# -- installation -------------------------------------------------------------


def _patch_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind a module-level function in every module that imported it."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap(tracer: Tracer, fn: Callable, name: str, layer: str) -> Callable:
    nid = tracer.name_id(name, layer)
    if inspect.isgeneratorfunction(fn):
        return tracer.generator_wrapper(fn, nid)
    return tracer.call_wrapper(fn, nid)


def _wrap_methods(tracer: Tracer, cls: type, names: List[str],
                  layer: Optional[str] = None,
                  subclasses: bool = False) -> None:
    """Wrap ``cls``'s methods ``names`` (and, with ``subclasses``, every
    subclass override of them)."""
    classes = [cls]
    if subclasses:
        pending = list(cls.__subclasses__())
        while pending:
            sub = pending.pop()
            classes.append(sub)
            pending.extend(sub.__subclasses__())
    for klass in classes:
        own_layer = layer or layer_of_module(klass.__module__)
        for attr in names:
            fn = klass.__dict__.get(attr)
            if fn is None and klass is cls:
                fn = getattr(klass, attr, None)
            if not inspect.isfunction(fn):
                continue
            setattr(klass, attr, _wrap(tracer, fn,
                                       f"{klass.__name__}.{attr}",
                                       own_layer))


def _public_methods(cls: type) -> List[str]:
    names = []
    for klass in cls.__mro__:
        if klass is object:
            continue
        for attr, value in vars(klass).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and attr not in names):
                names.append(attr)
    return sorted(names)


def _traced_kernel(tracer: Tracer, kernel: str,
                   factory: Callable) -> Callable:
    """A kernel factory whose rank bodies are traced as ``apps``."""
    nid = tracer.name_id(f"kernel:{kernel}", "apps")

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        return tracer.generator_wrapper(factory(*args, **kwargs), nid)

    return traced_factory


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (once per process)."""
    from repro.fault import campaign as fault_campaign
    from repro.health import gossip, state
    from repro.health.detectors import FailureDetector
    from repro.health.scheduling import DegradedBatchSimulator
    from repro.jobs import campaign as jobs_campaign
    from repro.jobs.log import JobLog
    from repro.messaging.comm import Communicator
    from repro.network.fabric import Fabric
    from repro.obs import metrics, spans
    from repro.scheduler.faults import FaultyBatchSimulator
    from repro.scheduler.policies import SchedulingPolicy
    from repro.scheduler.simulator import BatchSimulator
    from repro.sim.engine import Simulator

    # sim: run and timeout are plain calls; process also wraps the body.
    _wrap_methods(tracer, Simulator, ["run", "timeout"])
    process = Simulator.process
    process_nid = tracer.name_id("Simulator.process", "sim")
    wrap_body = tracer.wrap_process_body

    def traced_process(sim, generator, name=""):
        return process(sim, wrap_body(generator), name)

    functools.update_wrapper(traced_process, process)
    Simulator.process = tracer.call_wrapper(traced_process, process_nid)

    _wrap_methods(tracer, Fabric, ["transfer", "transfer_ex"])
    _wrap_methods(tracer, Communicator, _public_methods(Communicator))

    for fn, name in ((gossip.build_monitor, "build_monitor"),):
        _patch_everywhere(fn, _wrap(tracer, fn, name, "health"))
    _wrap_methods(tracer, state.Membership, ["transition"])
    _wrap_methods(tracer, FailureDetector, ["assess"], subclasses=True)

    _patch_everywhere(fault_campaign.run_campaign,
                      _wrap(tracer, fault_campaign.run_campaign,
                            "run_campaign", "fault"))
    # The faulty run and the clean replay get their own span names, so
    # the replay's share is visible as fault.replay_s.
    run_once = fault_campaign._run_once
    faulty_nid = tracer.name_id("run_once[faulty]", "fault")
    clean_nid = tracer.name_id("run_once[clean]", "fault")
    traced_faulty = tracer.call_wrapper(run_once, faulty_nid)
    traced_clean = tracer.call_wrapper(run_once, clean_nid)

    def traced_run_once(spec, faults_enabled, *args, **kwargs):
        chosen = traced_faulty if faults_enabled else traced_clean
        return chosen(spec, faults_enabled, *args, **kwargs)

    fault_campaign._run_once = traced_run_once
    _wrap_methods(tracer, fault_campaign.CheckpointVault,
                  _public_methods(fault_campaign.CheckpointVault))
    # apps: the rank bodies of every registered campaign kernel.
    for kernel in fault_campaign.available_kernels():
        fault_campaign.register_kernel(
            kernel, _traced_kernel(tracer, kernel,
                                   fault_campaign.get_kernel(kernel)))

    _patch_everywhere(jobs_campaign.run_jobs_campaign,
                      _wrap(tracer, jobs_campaign.run_jobs_campaign,
                            "run_jobs_campaign", "jobs"))
    _wrap_methods(tracer, JobLog, _public_methods(JobLog))

    for simulator in (BatchSimulator, FaultyBatchSimulator,
                      DegradedBatchSimulator):
        _wrap_methods(tracer, simulator, ["run"])
    _wrap_methods(tracer, SchedulingPolicy, ["select"], subclasses=True)

    # obs: only the null classes, so a real Observability is untouched.
    _wrap_methods(tracer, spans.NullObservability,
                  _public_methods(spans.NullObservability), layer="obs")
    _wrap_methods(tracer, spans.NullSpan,
                  _public_methods(spans.NullSpan)
                  + ["__enter__", "__exit__"], layer="obs")
    for null in (metrics.NullMetricsRegistry, metrics.NullCounter,
                 metrics.NullGauge, metrics.NullHistogram):
        _wrap_methods(tracer, null, _public_methods(null), layer="obs")
