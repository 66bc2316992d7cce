"""Atomic ``BENCH_*.json`` trajectory artifacts.

Every bench module and the fleet runner leave a JSON artifact at the
repo root so CI runs can be archived and compared across commits.  Two
failure modes used to corrupt that trajectory:

* a plain ``write_text`` interrupted mid-write leaves a truncated file
  that CI's artifact-validation step then fails to parse — so writes go
  through :func:`repro.lint.cache.write_json_atomic` (a temp file in the
  same directory, then an atomic :func:`os.replace`);
* a partially failed bench run (one test errored, or ``-k`` selected a
  subset) emits an artifact *missing the sections* downstream tooling
  keys on — so callers declare their ``required`` sections and the
  writer refuses (:class:`ValueError`) rather than emit a partial
  artifact over a complete one.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.lint.cache import write_json_atomic

__all__ = ["write_bench_artifact"]


def write_bench_artifact(path: Path, payload: Mapping[str, Any],
                         required: Sequence[str] = ()) -> None:
    """Write ``payload`` as deterministic JSON, atomically, or refuse.

    ``required`` names top-level sections that must be present and
    non-empty; a missing or empty one raises :class:`ValueError` and the
    file on disk — possibly a previous complete run's artifact — is left
    untouched.  The write itself goes to ``<name>.tmp`` in the target
    directory and is renamed into place, so a reader never observes a
    torn file even if this process dies mid-write.
    """
    path = Path(path)
    missing = [name for name in required if not payload.get(name)]
    if missing:
        raise ValueError(
            f"refusing to write {path.name}: missing or empty "
            f"section(s): {', '.join(missing)}")
    write_json_atomic(path, payload)
