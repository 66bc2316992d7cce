"""DetSan — the runtime determinism sanitizer.

The static rules in :mod:`repro.lint` prove determinism where an AST can
see it; DetSan pinpoints divergence where it cannot (C extensions,
address-dependent hashing, state smuggled through module globals).  The
idea is the TSan/MSan discipline applied to a discrete-event simulator:
instrument the *scheduling decisions* themselves, run the target twice
with the same seed, and report the **first divergent event** instead of
"the trace bytes differ".

A :class:`DetSanRecorder` attaches to a
:class:`~repro.sim.engine.Simulator` (``Simulator(detsan=recorder)``).
Every delivered event folds its ``(time, priority, sequence, kind,
name, resumed processes)`` tuple into a rolling SHA-256 digest, and —
unless ``keep_records=False`` — appends an :class:`EventRecord` so two
runs can be aligned event-by-event afterwards.  The engine's
disabled path is a single ``is not None`` check per event, bounded by
the <=3% overhead budget in ``bench_perf_engine``.

Driving it by hand::

    a, b = DetSanRecorder(), DetSanRecorder()
    Simulator(detsan=a); ...run...   # same workload, same seed
    Simulator(detsan=b); ...run...
    divergence = first_divergence(a, b)
    if divergence is not None:
        print(divergence.describe())

``python -m repro detsan campaign|app`` wraps exactly this around the
standard campaign workloads and decorates the report with span context
from :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

__all__ = [
    "DetSanRecorder",
    "Divergence",
    "EventRecord",
    "first_divergence",
    "span_context",
]


@dataclass(frozen=True)
class EventRecord:
    """One scheduling decision: what the engine delivered, and to whom.

    ``processes`` names the process(es) whose callbacks the event was
    about to resume — the attribution that turns an event index into
    "process ``rank2.3``".  Two same-seed runs are deterministic exactly
    when their record streams are equal element-wise.
    """

    index: int
    time: float
    priority: int
    sequence: int
    kind: str
    name: str
    processes: Tuple[str, ...]

    def describe(self) -> str:
        """One-line human-readable form for divergence reports."""
        owner = ", ".join(self.processes) if self.processes else "-"
        return (f"#{self.index} t={self.time!r} prio={self.priority} "
                f"seq={self.sequence} {self.kind}:{self.name!r} -> {owner}")

    def as_tuple(self) -> Tuple[Any, ...]:
        """The comparison key (everything except ``index``)."""
        return (self.time, self.priority, self.sequence, self.kind,
                self.name, self.processes)


class DetSanRecorder:
    """Folds a run's scheduling decisions into a digest (and a log).

    ``keep_records=False`` keeps only the rolling digest — enough to
    answer *whether* two runs diverged at minimal memory cost;
    ``keep_records=True`` (the default) also keeps the aligned event log
    that :func:`first_divergence` needs to answer *where*.
    """

    __slots__ = ("records", "keep_records", "events_folded", "_hash")

    def __init__(self, keep_records: bool = True) -> None:
        self.keep_records = keep_records
        self.records: List[EventRecord] = []
        self.events_folded = 0
        self._hash = hashlib.sha256()

    @property
    def digest(self) -> str:
        """Rolling SHA-256 over every scheduling decision folded so far."""
        return self._hash.hexdigest()

    def fold(self, when: float, priority: int, sequence: int,
             event: Any) -> None:
        """Fold one about-to-be-delivered event into the digest.

        Called by ``Simulator._dispatch`` — the delivery path of both
        :meth:`~repro.sim.engine.Simulator.step` and the general loop
        of :meth:`~repro.sim.engine.Simulator.run` — *before* delivery,
        so the record stream captures the decision order, not its side
        effects.  ``event`` is duck-typed (``name``, ``_callbacks``) to
        keep this module import-light.
        """
        processes = _resumed_processes(event)
        kind = type(event).__name__
        name = getattr(event, "name", "")
        # repr() of the float keeps full precision: two times that
        # differ in the last ulp are a divergence, not a rounding twin.
        self._hash.update(
            (f"{when!r}\x1f{priority}\x1f{sequence}\x1f{kind}"
             f"\x1f{name}\x1f{','.join(processes)}\x1e").encode("utf-8"))
        if self.keep_records:
            self.records.append(EventRecord(
                index=self.events_folded, time=when, priority=priority,
                sequence=sequence, kind=kind, name=name,
                processes=processes))
        self.events_folded += 1


def _resumed_processes(event: Any) -> Tuple[str, ...]:
    """Names of the processes and tasks this event's delivery drives.

    Processes register bound ``_resume`` / ``_resume_with_interrupt``
    methods as callbacks, and tasks and callback-driven transfers
    register their own bound methods.  A bound receiver with a
    ``generator`` attribute is a :class:`~repro.sim.engine.Process`; one
    with a ``track`` attribute is a :class:`~repro.sim.engine.Task` or a
    transfer run by :meth:`~repro.network.fabric.Fabric.send`, named
    after the task that sent it (duck-typed to avoid importing the
    engine from a module it instruments).
    """
    callbacks = getattr(event, "_callbacks", None)
    if not callbacks:
        return ()
    names: List[str] = []
    for callback in callbacks:
        receiver = getattr(callback, "__self__", None)
        if receiver is not None and (hasattr(receiver, "generator")
                                     or hasattr(receiver, "track")):
            names.append(getattr(receiver, "name", "?"))
    return tuple(names)


@dataclass(frozen=True)
class Divergence:
    """Where two same-seed runs first disagreed.

    ``left``/``right`` are the records at the first differing index
    (``None`` when one run simply ran out of events — a length
    divergence).  ``spans`` carries the innermost-to-outermost span
    names open around the divergent instant when the caller supplied an
    :class:`~repro.obs.Observability` (empty otherwise).
    """

    index: int
    left: Optional[EventRecord]
    right: Optional[EventRecord]
    spans: Tuple[str, ...] = ()

    def describe(self) -> str:
        """Multi-line report naming the first divergent event."""
        lines = [f"first divergent event: #{self.index}"]
        process = None
        for record in (self.right, self.left):
            if record is not None and record.processes:
                process = record.processes[0]
        if process is not None:
            lines[0] += f" in process {process!r}"
        lines.append(f"  run A: "
                     f"{self.left.describe() if self.left else '<ended>'}")
        lines.append(f"  run B: "
                     f"{self.right.describe() if self.right else '<ended>'}")
        if self.spans:
            lines.append("  open span(s): " + " > ".join(self.spans))
        return "\n".join(lines)


def first_divergence(a: DetSanRecorder, b: DetSanRecorder,
                     obs: Any = None) -> Optional[Divergence]:
    """Align two recorders and return the first disagreement, or None.

    Both recorders must have kept records (the default).  ``obs`` — an
    :class:`~repro.obs.Observability` from the *second* run — enriches
    the report with the spans open at the divergent instant.
    """
    if not a.keep_records or not b.keep_records:
        raise ValueError("first_divergence needs recorders with "
                         "keep_records=True")
    if a.digest == b.digest and a.events_folded == b.events_folded:
        return None
    for index, (left, right) in enumerate(zip(a.records, b.records)):
        if left.as_tuple() != right.as_tuple():
            spans = span_context(obs, right) if obs is not None else ()
            return Divergence(index=index, left=left, right=right,
                              spans=spans)
    index = min(len(a.records), len(b.records))
    left = a.records[index] if index < len(a.records) else None
    right = b.records[index] if index < len(b.records) else None
    anchor = right or left
    spans = (span_context(obs, anchor)
             if obs is not None and anchor is not None else ())
    return Divergence(index=index, left=left, right=right, spans=spans)


def span_context(obs: Any, record: EventRecord) -> Tuple[str, ...]:
    """Span names open around ``record``'s instant, innermost first.

    Matches spans whose track belongs to one of the record's resumed
    processes (per-process tracks are named after the process, possibly
    suffixed for uniqueness), falling back to any track when the event
    resumed no process.  Tolerant of any ``obs`` shape: no ``spans``
    attribute means no context.
    """
    spans = getattr(obs, "spans", None)
    if not spans:
        return ()
    matches = []
    for span in spans:
        start = getattr(span, "start", None)
        end = getattr(span, "end", None)
        if start is None or start > record.time:
            continue
        if end is not None and end < record.time:
            continue
        track = str(getattr(span, "track", ""))
        if record.processes and not any(
                track.startswith(process) for process in record.processes):
            continue
        matches.append((start, getattr(span, "name", "?")))
    matches.sort(key=lambda item: item[0], reverse=True)
    return tuple(name for _start, name in matches)
