"""Experiment fleet runner with a content-hash result cache.

``repro.xp`` is the only runner of the paper-claim experiments E01–E23
and makes re-measuring the experiment suite routine: each sweep point's
summary is cached under ``.repro-xp-cache/`` keyed by (code
fingerprint, canonical config), and cache misses are sharded across a
worker-process pool with an order-independent merge.  Every run then
checks each experiment's named paper claims on its summaries, cached
or not, and exits 1 naming any claim that broke.  A warm ``python -m repro fleet``
on an unchanged tree recomputes nothing; an edit re-runs exactly the
experiments whose fingerprint covers the edited file (most of them,
for a module in ``repro/__init__``'s closure; see
:mod:`repro.xp.fingerprint`).

Layering: rank 70, above :mod:`repro.lint` (rank 60) — the fingerprint
reuses the lint engine's import-graph walk — and therefore above
every library package the registered experiments drive.

Modules:

* :mod:`repro.xp.spec` — :class:`ExperimentSpec`/:class:`PointSpec`
  and :class:`Claim`;
* :mod:`repro.xp.fingerprint` — code fingerprints from the lint
  engine's import graph;
* :mod:`repro.xp.cache` — the per-point result cache;
* :mod:`repro.xp.runner` — the sweep orchestrator;
* :mod:`repro.xp.analytic` — E01–E19 with their paper claims;
* :mod:`repro.xp.experiments` — E20–E23 with their paper claims, and
  the registry;
* :mod:`repro.xp.artifacts` — atomic ``BENCH_*.json`` writing (also
  used by the bench modules);
* :mod:`repro.xp.cli` — ``python -m repro fleet``.
"""

from repro.xp.artifacts import write_bench_artifact
from repro.xp.cache import CACHE_DIR_NAME, ResultCache, canonical_json
from repro.xp.experiments import EXPERIMENTS, get_experiments
from repro.xp.fingerprint import code_fingerprints
from repro.xp.runner import (
    BrokenClaim,
    Divergence,
    FleetResult,
    PointResult,
    run_fleet,
)
from repro.xp.spec import Claim, ExperimentSpec, PointSpec

__all__ = [
    "BrokenClaim",
    "CACHE_DIR_NAME",
    "Claim",
    "Divergence",
    "EXPERIMENTS",
    "ExperimentSpec",
    "FleetResult",
    "PointResult",
    "PointSpec",
    "ResultCache",
    "canonical_json",
    "code_fingerprints",
    "get_experiments",
    "run_fleet",
    "write_bench_artifact",
]
