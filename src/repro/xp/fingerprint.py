"""The code half of the experiment cache key.

An experiment's summary depends on the code it executes: its run
function and the registered root modules plus everything they
transitively import from this source tree.
:class:`repro.lint.engine.ImportGraph` walks the roots' closure via
each module's ``ImportMap`` (the same alias harvesting the lint rules
run on) and returns the per-file SHA-256 set; the file that defines the
run function joins that set on its own (its own imports are not
followed), and :func:`repro.lint.engine.tree_fingerprint` folds the
whole set into one digest.  :func:`code_fingerprints` keys a whole
registry off one graph, so a file that many closures share is read and
parsed once per fleet run, not once per experiment.

The closures are coarse.  Every root under ``repro/`` executes
``repro/__init__.py`` on the way in, and that pulls in an 84-module
closure, so most registered experiments reach the same files: editing
``repro/fault/campaign.py``, ``repro/sim/engine.py`` or any other
module in that closure re-runs all of them.  Only roots outside it set
an experiment apart: ``repro/io`` (E14, E18), ``repro/tech/history.py``
and ``repro/analysis/scaling.py`` (E16), and ``repro/jobs`` (E22).
The run-function file splits the registry once more:
``repro/xp/analytic.py`` keys E01-E19 and ``repro/xp/experiments.py``
keys E20-E23, so editing a run function (or a claim next to it) re-runs
the experiments defined in that file and no others.
"""

from __future__ import annotations

import hashlib
import inspect
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.lint.engine import ImportGraph, tree_fingerprint
from repro.xp.spec import ExperimentSpec

__all__ = ["code_fingerprints", "default_src_root"]


def default_src_root() -> Path:
    """The directory experiment code roots resolve under.

    In a src-layout checkout this is ``src/`` (so roots read
    ``repro/...``); installed, it is the package's parent directory —
    either way, the anchor both the closure walk and the relative paths
    inside the fingerprint are stable against.
    """
    return Path(__file__).resolve().parent.parent.parent


def code_fingerprints(specs: Sequence[ExperimentSpec],
                      src_root: Optional[Path] = None) -> Dict[str, str]:
    """``{spec.name: digest}`` of the code each spec executes.

    A spec's digest covers the transitive import closure of its
    ``code_roots`` — POSIX paths relative to ``src_root`` (default:
    :func:`default_src_root`), e.g. ``("repro/fault/campaign.py",)`` —
    plus the file that defines its ``run``.  Any content change to any
    file in the closure, including files the roots only reach
    indirectly, or to the run function's file changes the digest; files
    outside ``src_root`` (stdlib, third party) never enter it.  The run
    function's file is keyed by its module name, so it counts wherever
    it lives.
    """
    base = Path(src_root) if src_root is not None else default_src_root()
    graph = ImportGraph(base)
    digests: Dict[str, str] = {}
    for spec in specs:
        shas = graph.closure([base / root for root in spec.code_roots])
        source = Path(inspect.getsourcefile(spec.run) or "").read_bytes()
        shas[f"run:{spec.run.__module__}"] = hashlib.sha256(
            source).hexdigest()
        digests[spec.name] = tree_fingerprint(shas)
    return digests
