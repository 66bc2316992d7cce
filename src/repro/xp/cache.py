"""Content-hash result cache for experiment points.

The :class:`~repro.lint.cache.LintCache` design, generalised from lint
findings to experiment summaries: each sweep point's result is keyed by
the two things that together determine it exactly —

* a **code fingerprint** — :func:`repro.lint.engine.tree_fingerprint`
  over the per-file SHA-256 set of the experiment's transitive local
  import closure plus the file defining its run function
  (:mod:`repro.xp.fingerprint`), so editing any file the experiment's
  code actually reaches invalidates its points and nothing else;
* the point's **canonical-JSON config** — sorted keys, no whitespace,
  so semantically identical configs always key identically.

Run functions take no seed (a stochastic experiment pins its own), so
nothing else can change a summary.

Unlike the lint cache's single document, entries live one-per-file as
``.repro-xp-cache/<experiment>/<key>.json`` with the key material
echoed inside, and each entry is written via temp-file + atomic rename:
experiment summaries are orders of magnitude more expensive to recompute
than lint findings, so a torn write must never take out a whole
experiment's warm set.  Any mismatch — edited code, different config,
corrupt or truncated entry — simply misses, and the point is
recomputed and re-stored.  The cache can therefore never change
*what* a fleet run reports, only how much of it is recomputed
(``tests/test_xp_cache.py`` proves byte-identical warm-vs-cold
summaries).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.lint.cache import write_json_atomic

__all__ = ["CACHE_DIR_NAME", "CACHE_VERSION", "ResultCache",
           "canonical_json"]

#: Directory created under the repo root to hold per-point entries.
CACHE_DIR_NAME = ".repro-xp-cache"

#: Version of the entry format and key derivation; bumping it forces a
#: cold fleet everywhere.
CACHE_VERSION = 2


def canonical_json(payload: Any) -> str:
    """The canonical byte form: sorted keys, compact separators.

    Both cache keys and summary-identity comparisons are defined over
    this encoding, so "byte-identical summaries" is a well-defined claim
    independent of dict insertion order.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class ResultCache:
    """Per-point experiment summaries keyed by (code, config).

    One instance corresponds to one cache directory.  ``get``/``put``
    operate on a single point's summary dict; there is no ``save`` step
    because entries are independent files, each written atomically at
    :meth:`put` time.  A missing, corrupt, or mismatched entry simply
    reads as a miss — the caller never needs to handle cache errors.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def key(self, experiment: str, point: str, code: str,
            config: Mapping[str, Any]) -> str:
        """SHA-256 entry key over the canonical identity tuple."""
        identity = canonical_json({
            "version": CACHE_VERSION,
            "experiment": experiment,
            "point": point,
            "code": code,
            "config": config,
        })
        return hashlib.sha256(identity.encode("utf-8")).hexdigest()

    def entry_path(self, experiment: str, key: str) -> Path:
        """Where one entry lives: ``<dir>/<experiment>/<key>.json``."""
        return self.directory / experiment / f"{key}.json"

    def get(self, experiment: str, point: str, code: str,
            config: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """Cached summary for this exact identity, or ``None``.

        Misses when no entry file exists for the key, the file is
        unreadable or malformed, or the echoed identity fields disagree
        with the request (a hash collision or a hand-edited entry).
        """
        key = self.key(experiment, point, code, config)
        path = self.entry_path(experiment, key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None  # missing, unreadable, or truncated: a miss
        if not isinstance(data, dict):
            return None
        if (data.get("version") != CACHE_VERSION
                or data.get("experiment") != experiment
                or data.get("point") != point
                or data.get("code") != code):
            return None
        summary = data.get("summary")
        if not isinstance(summary, dict):
            return None
        return summary

    def put(self, experiment: str, point: str, code: str,
            config: Mapping[str, Any],
            summary: Mapping[str, Any]) -> None:
        """Store one point's summary, atomically.

        The config and key material are echoed into the entry so a human
        inspecting the cache directory can tell the points apart, and so
        :meth:`get` can reject anything that does not match exactly.
        """
        key = self.key(experiment, point, code, config)
        payload = {
            "version": CACHE_VERSION,
            "tool": "repro.xp",
            "experiment": experiment,
            "point": point,
            "code": code,
            "config": dict(config),
            "summary": dict(summary),
        }
        write_json_atomic(self.entry_path(experiment, key), payload)
