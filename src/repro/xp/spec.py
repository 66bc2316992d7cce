"""Experiment specifications: what the fleet runner schedules.

An :class:`ExperimentSpec` names a module-level run function (it must
pickle by reference, because sharded points cross a process-pool
boundary), the sweep points to evaluate it at, the code roots whose
transitive import closure fingerprints its cache entries
(:mod:`repro.xp.fingerprint`), and the :class:`Claim` predicates its
summaries must satisfy.

A point's summary is a pure function of its code and its config: the
runner passes no seed, so a stochastic experiment pins its seeds in its
run function, and a point computes identically whichever worker
process evaluates it and in whatever order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Tuple

__all__ = ["Claim", "ExperimentSpec", "PointSpec"]


@dataclass(frozen=True)
class PointSpec:
    """One sweep point: a name plus its canonical-JSON-able config.

    ``config`` must survive a JSON round trip (plain dicts, lists,
    strings, numbers, bools): it is part of the cache key and is what
    the run function receives in a worker process.
    """

    name: str
    config: Mapping[str, Any]


@dataclass(frozen=True)
class Claim:
    """One named shape assertion over an experiment's point summaries.

    ``check({point: summary}) -> bool`` runs in the parent process on
    the summaries as the cache stores them (after the canonical-JSON
    round trip), so it holds or breaks identically on cold and warm
    runs.  ``paper_claim`` cites the numbered claim (1-6) of DESIGN.md
    "What the paper claims" that the assertion supports.
    """

    name: str
    paper_claim: int
    check: Callable[[Mapping[str, Mapping[str, Any]]], bool]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment the fleet runner can schedule.

    ``run(config) -> summary`` must be a module-level callable
    returning a JSON-able dict; it executes in a worker process when the
    fleet is sharded.  ``code_roots`` are src-root-relative files whose
    import closure, together with the file that defines ``run``, keys
    the cache (:func:`repro.xp.fingerprint.code_fingerprints`).
    ``claims`` are checked on every fleet run that includes the
    experiment, cached or not.
    """

    name: str
    run: Callable[[Mapping[str, Any]], Mapping[str, Any]]
    points: Tuple[PointSpec, ...]
    code_roots: Tuple[str, ...]
    description: str = ""
    claims: Tuple[Claim, ...] = ()
