"""Command-line front end: ``python -m repro fleet``.

::

    python -m repro fleet                        # run all experiments
    python -m repro fleet e20_fault_campaigns    # one experiment
    python -m repro fleet --list                 # registry, points, claims
    python -m repro fleet -j 4                   # shard misses over 4 procs
    python -m repro fleet --no-cache             # recompute + verify
    python -m repro fleet --stats                # hits, misses, wall time
    python -m repro fleet --format json          # machine-readable output

Results are cached per point under ``.repro-xp-cache/`` at the repo
root (see :mod:`repro.xp.cache`), keyed by code fingerprint + canonical
config, so a warm run on an unchanged tree recomputes nothing.
``--no-cache`` recomputes every point and *verifies* it against any
cached summary: a mismatch is a divergence and the run exits nonzero.
Every run, warm or cold, also checks each selected experiment's paper
claims on its summaries; a broken claim is printed with its experiment,
name and paper claim, and the run exits nonzero.

Every run also refreshes the ``BENCH_xp_fleet.json`` trajectory
artifact at the repo root, atomically (:mod:`repro.xp.artifacts`); its
``experiments`` section holds only the canonical summaries, so warm and
cold artifacts are byte-identical.

Exit status: 0 on success, 1 on summary divergence or a broken claim,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.xp.cache import CACHE_DIR_NAME, ResultCache
from repro.xp.experiments import EXPERIMENTS, get_experiments
from repro.xp.runner import FleetResult, run_fleet

__all__ = ["ARTIFACT_NAME", "add_arguments", "main", "run"]

#: The fleet's trajectory artifact, written at the repo root.
ARTIFACT_NAME = "BENCH_xp_fleet.json"


def _default_root() -> Path:
    """Repo root in a src-layout checkout (mirrors ``repro.lint.cli``)."""
    package_dir = Path(__file__).resolve().parent.parent
    if package_dir.parent.name == "src":
        return package_dir.parent.parent
    return package_dir.parent


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the fleet options to ``parser`` (shared with ``__main__``)."""
    parser.add_argument("experiments", nargs="*",
                        help="experiment names to run (default: all "
                             "registered)")
    parser.add_argument("--list", action="store_true",
                        help="print the experiment registry and exit")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point and verify against "
                             "cached summaries (divergence exits 1)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help=f"cache directory (default: {CACHE_DIR_NAME} "
                             f"at the repo root)")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes for cache misses (0 = one "
                             "per CPU; results are identical to serial)")
    parser.add_argument("--stats", action="store_true",
                        help="report points, cache hits, and wall time")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--artifact", type=Path, default=None,
                        help=f"trajectory artifact path (default: "
                             f"{ARTIFACT_NAME} at the repo root)")
    parser.add_argument("--no-artifact", action="store_true",
                        help="skip writing the trajectory artifact")


def _render_text(result: FleetResult, elapsed: Optional[float]) -> str:
    lines = []
    for point in result.results:
        origin = "cached" if point.cached else "ran"
        lines.append(f"{point.experiment}/{point.point}: {origin}")
    for divergence in result.divergences:
        lines.append(
            f"DIVERGENCE {divergence.experiment}/{divergence.point}: "
            f"cached {divergence.cached} != computed "
            f"{divergence.computed}")
    for broken in result.broken_claims:
        lines.append(f"BROKEN CLAIM {broken.experiment}/{broken.claim} "
                     f"(paper claim {broken.paper_claim})")
    lines.append(f"{result.points} point(s), {result.hits} cached "
                 f"({result.hit_rate:.0%}), "
                 f"{len(result.divergences)} divergence(s)")
    lines.append(f"{result.claims_checked} claims checked, "
                 f"{len(result.broken_claims)} broken")
    if elapsed is not None:
        lines.append(f"stats: {result.misses} recomputed, wall time "
                     f"{elapsed:.3f}s")
    return "\n".join(lines)


def _render_json(result: FleetResult, elapsed: Optional[float]) -> str:
    payload = {
        "experiments": result.summaries(),
        "points": result.points,
        "cache_hits": result.hits,
        "cache_hit_rate": round(result.hit_rate, 4),
        "divergences": [
            {"experiment": d.experiment, "point": d.point,
             "cached": d.cached, "computed": d.computed}
            for d in result.divergences
        ],
        "claims_checked": result.claims_checked,
        "broken_claims": [
            {"experiment": b.experiment, "claim": b.claim,
             "paper_claim": b.paper_claim}
            for b in result.broken_claims
        ],
    }
    if elapsed is not None:
        payload["stats"] = {
            "recomputed": result.misses,
            "wall_time_seconds": round(elapsed, 6),
        }
    return json.dumps(payload, indent=2, sort_keys=True)


def _write_artifact(result: FleetResult, path: Path) -> None:
    """Refresh the trajectory artifact (atomic; summaries only).

    Wall-clock stats stay out of the payload so a warm re-run rewrites
    byte-identical content — the artifact tracks *results* across PRs,
    not how long one machine took to produce them.
    """
    from repro.xp.artifacts import write_bench_artifact

    payload = {
        "benchmark_module": "xp_fleet",
        "experiments": result.summaries(),
    }
    write_bench_artifact(path, payload, required=("experiments",))


def run(args: argparse.Namespace) -> int:
    """Execute a parsed fleet invocation and print its report."""
    if args.list:
        for spec in EXPERIMENTS:
            print(f"{spec.name}  ({len(spec.points)} points, "
                  f"{len(spec.claims)} claims)  {spec.description}")
        return 0

    started = time.perf_counter()  # repro: noqa[REP002] host-side tool; --stats times the fleet run itself, not the model

    try:
        specs = get_experiments(args.experiments)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    jobs = args.jobs
    if jobs == 0:
        import os
        jobs = os.cpu_count() or 1
    if jobs < 1:
        print(f"error: --jobs must be >= 0, got {args.jobs}",
              file=sys.stderr)
        return 2

    root = _default_root()
    cache = ResultCache(args.cache_dir or (root / CACHE_DIR_NAME))
    result = run_fleet(specs, cache=cache, jobs=jobs,
                       serve_hits=not args.no_cache)
    elapsed = time.perf_counter() - started  # repro: noqa[REP002] see above: wall time of the fleet run itself

    if not args.no_artifact:
        _write_artifact(result, args.artifact or (root / ARTIFACT_NAME))

    stats_elapsed = elapsed if args.stats else None
    if args.format == "json":
        print(_render_json(result, stats_elapsed))
    else:
        print(_render_text(result, stats_elapsed))
    return result.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.xp.cli``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="experiment fleet runner with content-hash result "
                    "cache",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
