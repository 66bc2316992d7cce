"""Incremental lint cache: re-check only files whose content changed.

A cold ``python -m repro lint`` parses every file and runs every rule
over it; on a warm, unchanged tree that work is pure waste (and grows
linearly with the tree).  The cache remembers each file's findings,
keyed by three things that together determine them exactly:

* the file's **content SHA-256** — findings depend only on source text
  (``# repro: noqa`` suppressions are comments, hence part of the hash);
* a **rule-set fingerprint** — SHA-256 over the active selection's
  ``(code, name, severity, description)`` tuples, so ``--select`` subsets
  and edited rule metadata never serve stale results;
* the **engine version** (:data:`repro.lint.engine.ENGINE_VERSION`) —
  bumped manually when engine semantics change without touching rule
  metadata.

Entries persist as deterministic JSON (sorted keys, stable indent) in
``.repro-lint-cache/cache.json`` under the lint root, written by
:func:`write_json_atomic` (shared with :mod:`repro.xp`).  Any mismatch —
edited file, different rule selection, bumped engine version, corrupt or
truncated cache file — degrades to a cold check of the affected scope.
The cache can therefore never change *what* is reported, only how much
re-parsing it takes (``tests/test_lint_cache.py`` proves byte-identical
findings with and without it).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.lint.engine import ENGINE_VERSION, Finding, Rule

__all__ = [
    "CACHE_DIR_NAME",
    "CACHE_FILE_NAME",
    "LintCache",
    "rule_fingerprint",
    "write_json_atomic",
]

#: Directory created under the lint root to hold the cache file.
CACHE_DIR_NAME = ".repro-lint-cache"

#: The single JSON document inside :data:`CACHE_DIR_NAME`.
CACHE_FILE_NAME = "cache.json"


def rule_fingerprint(rules: Sequence[Rule]) -> str:
    """SHA-256 fingerprint of a rule selection's identity.

    Covers each rule's code, name, severity, and description, order-
    independently: the same set of rules always fingerprints the same,
    and editing any rule's metadata (the conventional marker that its
    semantics moved) invalidates every cached entry.
    """
    parts = sorted(
        "\x1f".join((rule.code, rule.name, rule.severity, rule.description))
        for rule in rules
    )
    return hashlib.sha256("\x1e".join(parts).encode("utf-8")).hexdigest()


def write_json_atomic(path: Path, payload: Any) -> None:
    """Write ``payload`` as sorted-key, indent-2 JSON plus a newline, via
    ``<name>.tmp`` and an atomic rename (creating the directory): an
    interrupted write leaves the previous file whole, never torn."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


def _content_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _decode_findings(raw: object) -> Optional[List[Finding]]:
    """Decode a stored findings list; ``None`` on any malformation."""
    if not isinstance(raw, list):
        return None
    findings: List[Finding] = []
    for item in raw:
        if not isinstance(item, dict):
            return None
        try:
            findings.append(Finding(
                path=str(item["path"]),
                line=int(item["line"]),
                column=int(item["column"]),
                rule=str(item["rule"]),
                message=str(item["message"]),
                severity=str(item["severity"]),
            ))
        except (KeyError, TypeError, ValueError):
            return None
    return findings


class LintCache:
    """Per-file findings keyed by content hash, rule set, engine version.

    One instance corresponds to one ``(directory, rules, engine_version)``
    triple.  ``get``/``put`` operate on a single file's raw (pre-baseline)
    findings; ``save`` persists the accumulated state.  A missing,
    corrupt, or mismatched cache file simply loads as empty — the caller
    never needs to handle cache errors.
    """

    def __init__(self, directory: Path, rules: Sequence[Rule],
                 engine_version: int = ENGINE_VERSION) -> None:
        self.directory = Path(directory)
        self.path = self.directory / CACHE_FILE_NAME
        self.fingerprint = rule_fingerprint(rules)
        self.engine_version = engine_version
        self._files: Dict[str, Dict[str, object]] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # missing, unreadable, or truncated: start cold
        if not isinstance(data, dict):
            return
        if data.get("engine_version") != self.engine_version:
            return
        if data.get("rule_fingerprint") != self.fingerprint:
            return
        files = data.get("files")
        if isinstance(files, dict):
            self._files = files

    def get(self, rel: str, source: str) -> Optional[List[Finding]]:
        """Cached file-scope findings for ``rel`` at this content, or None.

        Returns ``None`` (a miss) when the file is unknown, its content
        hash differs, or the stored entry is malformed in any way.
        """
        entry = self._files.get(rel)
        if not isinstance(entry, dict):
            return None
        if entry.get("sha256") != _content_digest(source):
            return None
        return _decode_findings(entry.get("findings"))

    def get_project(self, rel: str, source: str,
                    tree: str) -> Optional[List[Finding]]:
        """Cached project-scope findings for ``rel``, or ``None``.

        Project findings depend on the *whole* scanned tree, so the entry
        is additionally keyed by the tree fingerprint
        (:func:`repro.lint.engine.tree_fingerprint`): any file changing
        anywhere misses every project entry at once.
        """
        entry = self._files.get(rel)
        if not isinstance(entry, dict):
            return None
        if entry.get("sha256") != _content_digest(source):
            return None
        project = entry.get("project")
        if not isinstance(project, dict) or project.get("tree") != tree:
            return None
        return _decode_findings(project.get("findings"))

    def put(self, rel: str, source: str,
            findings: Sequence[Finding]) -> None:
        """Record file-scope ``findings`` for ``rel`` at this content."""
        self._files[rel] = {
            "sha256": _content_digest(source),
            "findings": [f.as_dict() for f in sorted(findings)],
        }
        self._dirty = True

    def put_project(self, rel: str, source: str, tree: str,
                    findings: Sequence[Finding]) -> None:
        """Record project-scope ``findings`` for ``rel`` at this tree."""
        digest = _content_digest(source)
        entry = self._files.get(rel)
        if not isinstance(entry, dict) or entry.get("sha256") != digest:
            # No matching file-scope entry (shouldn't happen in a normal
            # run): store a null findings list so get() still misses.
            entry = {"sha256": digest, "findings": None}
            self._files[rel] = entry
        entry["project"] = {
            "tree": tree,
            "findings": [f.as_dict() for f in sorted(findings)],
        }
        self._dirty = True

    def save(self) -> None:
        """Write the cache file (deterministic JSON); no-op when clean.

        Skipping the write on an all-hits run keeps a warm lint from
        touching the filesystem at all beyond reads.
        """
        if not self._dirty:
            return
        payload = {
            "version": 1,
            "tool": "repro.lint",
            "engine_version": self.engine_version,
            "rule_fingerprint": self.fingerprint,
            "files": self._files,
        }
        write_json_atomic(self.path, payload)
        self._dirty = False
