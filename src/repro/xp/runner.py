"""Sweep orchestrator: shard points over a pool, merge order-free.

The same shape :func:`repro.lint.engine.lint_paths` proved for lint —
serve cache hits first, fan the misses out over a process pool, merge
deterministically — applied to experiment points:

1. fingerprint each experiment's code once, all off one import graph
   (:mod:`repro.xp.fingerprint`);
2. look every point up in the :class:`~repro.xp.cache.ResultCache`; hits
   return their stored summary without touching the experiment code;
3. shard the misses across ``jobs`` worker processes.  Tasks are
   ``(index, run_function, config)`` tuples — the function pickles by
   reference and takes nothing but the config, so a point computes
   identically whichever worker gets it;
4. store each fresh summary as its task completes (parent process only
   — workers never write the cache), comparing it against any prior
   valid entry: a mismatch is a :class:`Divergence`, the fleet's
   nonzero-exit signal.  A point that raises propagates its exception,
   and every point finished before it stays cached;
5. merge by sorting on ``(experiment, point)`` — the result order never
   depends on pool scheduling, which is what makes ``-j 1`` and
   ``-j 4`` runs byte-identical;
6. check every experiment's :class:`~repro.xp.spec.Claim` predicates
   against its merged ``{point: summary}`` map, served or recomputed
   alike: a claim that does not hold is a :class:`BrokenClaim`, the
   other nonzero-exit signal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.xp.cache import ResultCache, canonical_json
from repro.xp.fingerprint import code_fingerprints
from repro.xp.spec import ExperimentSpec, PointSpec

__all__ = ["BrokenClaim", "Divergence", "FleetResult", "PointResult",
           "run_fleet"]


@dataclass(frozen=True)
class PointResult:
    """Outcome of one sweep point: its summary, and how it was obtained."""

    experiment: str
    point: str
    cached: bool
    summary: Mapping[str, Any]


@dataclass(frozen=True)
class Divergence:
    """A recomputed summary that contradicts the cached bytes.

    Same code fingerprint, same config, different canonical summary
    means either hidden nondeterminism in the experiment or code the
    fingerprint failed to cover — both worth failing the run over.
    """

    experiment: str
    point: str
    cached: str
    computed: str


@dataclass(frozen=True)
class BrokenClaim:
    """A paper-claim predicate that did not hold on this run's summaries."""

    experiment: str
    claim: str
    paper_claim: int


@dataclass
class FleetResult:
    """Merged outcome of one fleet run."""

    results: List[PointResult]
    divergences: List[Divergence]
    claims_checked: int = 0
    broken_claims: List[BrokenClaim] = field(default_factory=list)

    @property
    def points(self) -> int:
        """Total sweep points evaluated or served."""
        return len(self.results)

    @property
    def hits(self) -> int:
        """Points served from the cache."""
        return sum(1 for r in self.results if r.cached)

    @property
    def misses(self) -> int:
        """Points recomputed this run."""
        return self.points - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of points served from the cache (0.0 when empty)."""
        return self.hits / self.points if self.points else 0.0

    @property
    def exit_code(self) -> int:
        """0 when no divergence was detected and every claim held."""
        return 1 if self.divergences or self.broken_claims else 0

    def summaries(self) -> Dict[str, Dict[str, Mapping[str, Any]]]:
        """Nested ``{experiment: {point: summary}}`` view of the results."""
        merged: Dict[str, Dict[str, Mapping[str, Any]]] = {}
        for result in self.results:
            merged.setdefault(result.experiment, {})[result.point] = \
                result.summary
        return merged


def _run_task(task: Tuple[int, Any, Dict[str, Any]]
              ) -> Tuple[int, Dict[str, Any]]:
    """Pool worker: evaluate one point, tagged with its task index.

    Module-level so it pickles by reference; the run function inside the
    task does too.  Everything a point needs travels in the task — no
    worker-side registry or initializer state.
    """
    index, run, config = task
    return index, dict(run(config))


def run_fleet(specs: Sequence[ExperimentSpec],
              cache: Optional[ResultCache] = None, jobs: int = 1,
              serve_hits: bool = True,
              src_root: Optional[Path] = None) -> FleetResult:
    """Evaluate every point of every spec, cached and sharded.

    ``serve_hits=False`` (the CLI's ``--no-cache``) recomputes every
    point but still reads any prior entry for comparison — that is the
    divergence-verification mode — and refreshes the stored entries.
    With ``cache=None`` nothing is read or written and no divergence can
    be reported.  Each recomputed point is stored as soon as it
    finishes, so a point that raises loses no other point's work.
    Results are sorted by ``(experiment, point)`` regardless of
    ``jobs``.  Every spec's claims are then checked on the merged
    summaries, whether they came from the cache or not.
    """
    fingerprints = code_fingerprints(specs, src_root)
    results: List[PointResult] = []
    pending: List[Tuple[ExperimentSpec, PointSpec]] = []
    for spec in specs:
        for point in spec.points:
            if cache is not None and serve_hits:
                hit = cache.get(spec.name, point.name,
                                fingerprints[spec.name], dict(point.config))
                if hit is not None:
                    results.append(PointResult(
                        experiment=spec.name, point=point.name,
                        cached=True, summary=hit))
                    continue
            pending.append((spec, point))

    divergences: List[Divergence] = []

    def store(index: int, raw: Mapping[str, Any]) -> None:
        spec, point = pending[index]
        # Round-trip through canonical JSON so the stored summary, the
        # in-memory summary, and every future comparison share one byte
        # form (tuples become lists now, not at some later read).
        summary = json.loads(canonical_json(raw))
        if cache is not None:
            code, config = fingerprints[spec.name], dict(point.config)
            prior = cache.get(spec.name, point.name, code, config)
            if (prior is not None
                    and canonical_json(prior) != canonical_json(summary)):
                divergences.append(Divergence(
                    experiment=spec.name, point=point.name,
                    cached=canonical_json(prior),
                    computed=canonical_json(summary)))
            cache.put(spec.name, point.name, code, config, summary)
        results.append(PointResult(
            experiment=spec.name, point=point.name, cached=False,
            summary=summary))

    tasks = [(index, spec.run, dict(point.config))
             for index, (spec, point) in enumerate(pending)]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(
                processes=min(jobs, len(tasks))) as pool:
            for index, raw in pool.imap_unordered(_run_task, tasks):
                store(index, raw)
    else:
        for task in tasks:
            store(*_run_task(task))

    results.sort(key=lambda r: (r.experiment, r.point))
    divergences.sort(key=lambda d: (d.experiment, d.point))
    fleet = FleetResult(results=results, divergences=divergences)
    merged = fleet.summaries()
    for spec in specs:
        for claim in spec.claims:
            fleet.claims_checked += 1
            if not claim.check(merged[spec.name]):
                fleet.broken_claims.append(BrokenClaim(
                    experiment=spec.name, claim=claim.name,
                    paper_claim=claim.paper_claim))
    return fleet
