"""Experiment specifications: what the fleet runner schedules.

An :class:`ExperimentSpec` names a module-level run function (it must
pickle by reference, because sharded points cross a process-pool
boundary), the sweep points to evaluate it at, the code roots whose
transitive import closure fingerprints its cache entries
(:mod:`repro.xp.fingerprint`), and the :class:`Claim` predicates its
summaries must satisfy.

Each point's RNG seed is derived, not shared: :func:`point_seed` hashes
``(fleet seed, experiment name, point name)`` so every point gets an
independent, reproducible stream regardless of which worker process
evaluates it or in what order — the property the shard-count
independence test (same seed, ``-j 1`` vs ``-j 4``, identical merged
results) rests on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Tuple

__all__ = ["Claim", "ExperimentSpec", "PointSpec", "point_seed"]


def point_seed(seed: int, experiment: str, point: str) -> int:
    """Deterministic per-point seed: hash of (fleet seed, names).

    SHA-256 keeps the derivation stable across Python versions and
    processes (no ``hash()`` randomisation), and folding the names in
    means sibling points never share a stream even under the same fleet
    seed.
    """
    text = f"{seed}\x1f{experiment}\x1f{point}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 31 - 1)


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

    ``run(config, seed) -> summary`` must be a module-level callable
    returning a JSON-able dict; it executes in a worker process when the
    fleet is sharded.  ``code_roots`` are src-root-relative files whose
    import closure, together with the file that defines ``run``, keys
    the cache (:func:`repro.xp.fingerprint.code_fingerprints`).
    ``deterministic=False`` marks measurement experiments (wall-clock
    timings) whose summaries legitimately vary between runs: they are
    cached like everything else but excluded from divergence verdicts.
    ``claims`` are checked on every fleet run that includes the
    experiment, cached or not.
    """

    name: str
    run: Callable[[Mapping[str, Any], int], Mapping[str, Any]]
    points: Tuple[PointSpec, ...]
    code_roots: Tuple[str, ...]
    deterministic: bool = True
    description: str = ""
    claims: Tuple[Claim, ...] = ()
