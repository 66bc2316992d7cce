"""Core machinery of the invariant checker: findings, modules, rules, runner.

The engine is deliberately small and dependency-free (stdlib ``ast`` only)
so it can run anywhere the library runs — in CI, in a pre-PR checklist,
and inside its own test suite.  It provides:

* :class:`Finding` — one diagnostic, with a stable :meth:`Finding.key`
  used by the baseline mechanism;
* :class:`ModuleInfo` — a parsed source file plus the derived facts every
  rule needs (dotted module name, package layer, import aliases,
  ``# repro: noqa[...]`` suppressions);
* :class:`Rule` / :class:`RuleVisitor` — the visitor framework rules are
  written against;
* :func:`lint_paths` / :func:`lint_module` — the runner;
* :func:`load_baseline` / :func:`write_baseline` — grandfathered findings.

Suppressions are inline comments on the *reported* line::

    tag_base = 1 << 20  # repro: noqa[REP003] tag namespace, not bytes

A bare ``# repro: noqa`` suppresses every rule on that line.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.lint.cache import LintCache

__all__ = [
    "ENGINE_VERSION",
    "ERROR",
    "WARNING",
    "Finding",
    "ImportGraph",
    "ImportMap",
    "LintResult",
    "ModuleInfo",
    "ProjectRule",
    "Rule",
    "RuleVisitor",
    "apply_baseline",
    "iter_python_files",
    "lint_module",
    "lint_module_project",
    "lint_paths",
    "load_baseline",
    "resolve_dotted",
    "tree_fingerprint",
    "write_baseline",
]

#: Severity levels.  ``error`` findings fail the run; ``warning`` findings
#: are reported but do not affect the exit status.
ERROR = "error"
WARNING = "warning"

#: Version of the engine's *finding semantics*.  Bump whenever a change to
#: the engine (not to an individual rule's metadata, which the cache
#: fingerprints separately) could alter what a rule reports for unchanged
#: source — it is part of the incremental cache key, so bumping forces a
#: cold run everywhere.  v2: two-phase runs (file rules + project rules)
#: with separately-keyed project entries.
ENGINE_VERSION = 2

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a rule at a source location."""

    path: str
    line: int
    column: int
    rule: str
    message: str
    severity: str = ERROR

    def key(self) -> str:
        """Stable identity for the baseline: survives line-number drift."""
        return f"{self.path}::{self.rule}::{self.message}"

    def render(self) -> str:
        """One-line human-readable form (``path:line:col: CODE message``)."""
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.rule} [{self.severity}] {self.message}")

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form for ``--format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


class ImportMap:
    """Local-name -> dotted-origin aliases harvested from a module's imports.

    ``modules`` maps names bound by ``import`` statements (``np`` ->
    ``numpy``); ``members`` maps names bound by ``from X import y [as z]``
    (``default_rng`` -> ``numpy.random.default_rng``).

    ``package`` is the dotted package that anchors *relative* imports.
    For a plain module it is the parent of ``dotted``; for a package
    (``__init__.py``) it is ``dotted`` itself — ``from . import engine``
    inside ``repro.lint``'s ``__init__`` means ``repro.lint.engine``, not
    ``repro.engine``.  When ``package`` is ``None`` it is derived from
    ``dotted`` assuming a plain module (backward-compatible default).
    """

    def __init__(self, tree: ast.AST, dotted: str = "",
                 package: Optional[str] = None) -> None:
        self.modules: Dict[str, str] = {}
        self.members: Dict[str, str] = {}
        if package is None:
            package = dotted.rsplit(".", 1)[0] if "." in dotted else ""
        self.package = package
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
                    else:
                        self.modules[alias.name.split(".")[0]] = \
                            alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    context = package.split(".") if package else []
                    context = context[: len(context) - (node.level - 1)]
                    base = ".".join(context + ([base] if base else []))
                for alias in node.names:
                    local = alias.asname or alias.name
                    origin = f"{base}.{alias.name}" if base else alias.name
                    self.members[local] = origin


def resolve_dotted(node: ast.AST, imports: ImportMap) -> Optional[str]:
    """Canonical dotted path of an attribute chain, or ``None``.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    when ``np`` aliases ``numpy``; names that were never imported resolve
    to ``None`` so local variables cannot trigger import-based rules.
    """
    attrs: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        attrs.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = imports.modules.get(current.id)
    if base is None:
        base = imports.members.get(current.id)
    if base is None:
        return None
    return ".".join([base] + list(reversed(attrs)))


class ModuleInfo:
    """A parsed source file plus the facts rules need about it."""

    def __init__(self, path: Path, rel: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.dotted = self._dotted_name(rel)
        self.is_package = Path(rel).name == "__init__.py"
        parts = self.dotted.split(".")
        self.package = parts[1] if len(parts) > 1 else ""
        if self.is_package:
            # A package's relative imports resolve against itself:
            # ``from . import engine`` in repro/lint/__init__.py names
            # repro.lint.engine.
            self.import_package = self.dotted
        elif "." in self.dotted:
            self.import_package = self.dotted.rsplit(".", 1)[0]
        else:
            self.import_package = ""
        self.imports = ImportMap(tree, self.dotted,
                                 package=self.import_package)
        self.noqa = self._parse_noqa(self.lines)

    @staticmethod
    def _dotted_name(rel: str) -> str:
        parts = list(Path(rel).parts)
        if "repro" in parts:
            parts = parts[parts.index("repro"):]
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][: -len(".py")]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    @staticmethod
    def _parse_noqa(lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
        suppressions: Dict[int, Optional[Set[str]]] = {}
        for number, text in enumerate(lines, start=1):
            match = _NOQA_RE.search(text)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                suppressions[number] = None          # suppress everything
            else:
                suppressions[number] = {
                    code.strip().upper()
                    for code in codes.split(",") if code.strip()
                }
        return suppressions

    def suppressed(self, line: int, code: str) -> bool:
        """True when a ``# repro: noqa`` comment covers ``code`` on ``line``."""
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        return codes is None or code.upper() in codes

    def segment(self, node: ast.AST) -> str:
        """Raw source text of ``node`` (empty string when unavailable)."""
        return ast.get_source_segment(self.source, node) or ""


class Rule:
    """Base class for one checkable invariant.

    Subclasses set the class attributes and either point ``visitor`` at a
    :class:`RuleVisitor` subclass or override :meth:`check` outright.

    ``scope`` is ``"file"`` for rules that see one module at a time (the
    cacheable, parallelisable default) and ``"project"`` for whole-program
    rules (:class:`ProjectRule`) that additionally see the symbol graph
    built from every scanned module.
    """

    code: str = "REP000"
    name: str = "unnamed"
    severity: str = ERROR
    description: str = ""
    scope: str = "file"
    visitor: Optional[type] = None

    def check(self, module: ModuleInfo) -> List[Finding]:
        """Run the rule over one module, returning raw findings."""
        if self.visitor is None:  # pragma: no cover - abstract guard
            raise NotImplementedError(f"{self.code} defines no visitor")
        walker = self.visitor(self, module)
        walker.visit(module.tree)
        return walker.findings

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=module.rel,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            message=message,
            severity=self.severity,
        )


class ProjectRule(Rule):
    """A whole-program rule: checked against the full symbol graph.

    Project rules run in a second phase after every file has been parsed,
    so they can follow imports across module boundaries.  Subclasses
    override :meth:`check_project`; :meth:`Rule.check` is unsupported
    because a lone module is not enough context.
    """

    scope = "project"

    def check(self, module: ModuleInfo) -> List[Finding]:
        """Unsupported — project rules need the graph, not one module."""
        raise NotImplementedError(
            f"{self.code} is a project rule; use check_project()")

    def check_project(self, module: ModuleInfo,
                      graph: object) -> List[Finding]:
        """Run the rule over ``module`` with the whole-program ``graph``.

        ``graph`` is a :class:`repro.lint.dataflow.SymbolGraph`; it is
        typed loosely here to keep the engine free of rule imports.
        """
        raise NotImplementedError  # pragma: no cover - abstract


class RuleVisitor(ast.NodeVisitor):
    """``ast.NodeVisitor`` with finding collection bound to one rule."""

    def __init__(self, rule: Rule, module: ModuleInfo) -> None:
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding for ``node``."""
        self.findings.append(self.rule.finding(self.module, node, message))


@dataclass
class LintResult:
    """Outcome of a lint run: visible findings plus bookkeeping counts."""

    findings: List[Finding]
    files_scanned: int
    baselined: int
    cache_hits: int = 0
    project_cache_hits: int = 0

    @property
    def errors(self) -> List[Finding]:
        """Findings that should fail the run."""
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def exit_code(self) -> int:
        """0 when no error-severity findings remain."""
        return 1 if self.errors else 0


class _ParseFailure(Rule):
    """Pseudo-rule used to report unparseable files."""

    code = "REP000"
    name = "parse-failure"
    description = "file could not be parsed as Python source"


_PARSE_FAILURE = _ParseFailure()


def _relative_posix(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _load_module(path: Path, rel: str,
                 source: str) -> Tuple[Optional[ModuleInfo],
                                       Optional[Finding]]:
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        finding = Finding(path=rel, line=error.lineno or 1,
                          column=(error.offset or 0) + 1,
                          rule=_PARSE_FAILURE.code,
                          message=f"syntax error: {error.msg}")
        return None, finding
    return ModuleInfo(path, rel, source, tree), None


def lint_module(module: ModuleInfo, rules: Sequence[Rule]) -> List[Finding]:
    """All non-suppressed file-scope findings for one parsed module."""
    findings: List[Finding] = []
    for rule in rules:
        if rule.scope != "file":
            continue
        for finding in rule.check(module):
            if not module.suppressed(finding.line, finding.rule):
                findings.append(finding)
    return sorted(findings)


def lint_module_project(module: ModuleInfo, graph: object,
                        rules: Sequence[Rule]) -> List[Finding]:
    """All non-suppressed project-scope findings for one parsed module."""
    findings: List[Finding] = []
    for rule in rules:
        if rule.scope != "project":
            continue
        for finding in rule.check_project(module, graph):  # type: ignore[attr-defined]
            if not module.suppressed(finding.line, finding.rule):
                findings.append(finding)
    return sorted(findings)


def tree_fingerprint(shas: Dict[str, str]) -> str:
    """Digest of the whole scanned tree (rel path + content sha per file).

    Project findings depend on *every* file, so their cache entries are
    keyed by this fingerprint: any file changing (or appearing, or
    vanishing) invalidates all project entries at once while per-file
    entries stay warm.
    """
    digest = hashlib.sha256()
    for rel in sorted(shas):
        digest.update(f"{rel}\x1f{shas[rel]}\x1e".encode("utf-8"))
    return digest.hexdigest()


def _closure_names(rel: str) -> Tuple[str, str]:
    """(dotted module name, relative-import anchor) for a closure file.

    Unlike :meth:`ModuleInfo._dotted_name` this is anchored purely at the
    source root — no special-casing of the ``repro`` package — so the
    closure walk works over any package tree (the xp cache tests build
    synthetic ones).
    """
    parts = list(Path(rel).parts)
    is_package = parts[-1] == "__init__.py"
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if is_package:
        parts = parts[:-1]
    dotted = ".".join(parts)
    if is_package:
        package = dotted
    elif "." in dotted:
        package = dotted.rsplit(".", 1)[0]
    else:
        package = ""
    return dotted, package


def _resolve_module_files(dotted: str, src_root: Path) -> List[Path]:
    """Files under ``src_root`` that importing ``dotted`` executes.

    ``a.b.c`` tries ``a/b/c.py`` then ``a/b/c/__init__.py``, falling
    back through shorter prefixes — so a *member* origin such as
    ``repro.sim.engine.Simulator`` still lands on ``repro/sim/engine.py``
    — and additionally includes every ancestor package ``__init__.py``,
    because importing a submodule executes those too.  Names that
    resolve to nothing under ``src_root`` (stdlib, third party) return
    an empty list and simply drop out of the closure.
    """
    parts = dotted.split(".")
    found: List[Path] = []
    depth = len(parts)
    while depth > 0:
        base = src_root.joinpath(*parts[:depth])
        module = base.with_suffix(".py")
        init = base / "__init__.py"
        if module.is_file():
            found.append(module)
            break
        if init.is_file():
            found.append(init)
            break
        depth -= 1
    for k in range(1, depth):
        init = src_root.joinpath(*parts[:k]) / "__init__.py"
        if init.is_file():
            found.append(init)
    return found


class ImportGraph:
    """The local-import graph under one source root, walked on demand.

    :meth:`closure` returns the transitive local-import closure of a set
    of roots as ``{rel: sha256}``.  Each file's content hash and import
    edges are computed once per graph and then reused, so the closures
    of many overlapping root sets cost one read and parse per file: the
    fleet runner fingerprints every experiment off one graph, and nearly
    all of them reach the same closure of ``repro/__init__.py``.  Build a
    new graph to see edits made since the last one.
    """

    def __init__(self, src_root: Path) -> None:
        self.src_root = Path(src_root).resolve()
        self._files: Dict[str, Tuple[str, List[Path]]] = {}

    def closure(self, roots: Iterable[Path]) -> Dict[str, str]:
        """Transitive local-import closure of ``roots``: ``{rel: sha256}``.

        Walks each module's :class:`ImportMap` member origins plus raw
        ``import a.b.c`` dotted names (the map intentionally truncates
        those to their first segment for alias resolution, which is too
        coarse here), resolving every candidate to a file under the
        source root and recursing.  Only files inside the source root
        enter the closure, keyed by their POSIX path relative to it.

        This is the code half of the experiment cache key
        (:mod:`repro.xp.fingerprint`): fold the returned mapping with
        :func:`tree_fingerprint` and any edit to any transitively
        imported file changes the digest.  Unparseable files contribute
        their content hash but no further edges.
        """
        shas: Dict[str, str] = {}
        stack = iter_python_files(roots)
        while stack:
            path = stack.pop()
            try:
                rel = path.relative_to(self.src_root).as_posix()
            except ValueError:
                continue  # outside the tree: not local code
            if rel in shas:
                continue
            if rel not in self._files:
                self._files[rel] = self._read(path, rel)
            shas[rel], imported = self._files[rel]
            stack.extend(imported)
        return shas

    def _read(self, path: Path, rel: str) -> Tuple[str, List[Path]]:
        """One file's content hash and the local files it imports."""
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return _sha256(source), []
        dotted, package = _closure_names(rel)
        imports = ImportMap(tree, dotted, package=package)
        candidates = set(imports.members.values())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    candidates.add(alias.name)
        imported: List[Path] = []
        for name in sorted(candidates):
            imported.extend(_resolve_module_files(name, self.src_root))
        return _sha256(source), imported


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if "__pycache__" not in found.parts:
                    seen.add(found.resolve())
        elif path.suffix == ".py":
            seen.add(path.resolve())
    return sorted(seen)


#: Rule set installed in each pool worker by :func:`_init_worker`, so
#: rules are pickled once per process instead of once per file.
_WORKER_RULES: Tuple[Rule, ...] = ()


def _init_worker(rules: Tuple[Rule, ...]) -> None:
    """Pool initializer: stash the rule set in the worker process."""
    global _WORKER_RULES
    _WORKER_RULES = rules


def _check_one(task: Tuple[str, str, str], rules: Sequence[Rule],
               ) -> Tuple[str, List[Finding], Optional[ModuleInfo], bool]:
    """Lint one file's file-scope rules; returns the parsed module too."""
    path, rel, source = task
    module, failure = _load_module(Path(path), rel, source)
    if failure is not None:
        return rel, [failure], None, True
    assert module is not None
    return rel, lint_module(module, rules), module, False


def _check_one_worker(task: Tuple[str, str, str],
                      ) -> Tuple[str, List[Finding], None, bool]:
    """Pool worker wrapper: drop the module (ASTs are costly to pickle)."""
    rel, findings, _module, failed = _check_one(task, _WORKER_RULES)
    return rel, findings, None, failed


def _run_file_phase(pending: Sequence[Tuple[Path, str, str]],
                    rules: Sequence[Rule], jobs: int,
                    ) -> List[Tuple[str, List[Finding],
                                    Optional[ModuleInfo], bool]]:
    """Run file-scope rules over ``pending``, optionally on a process pool.

    Parallel results come back in submission order (``Pool.map``), so the
    merged finding stream is byte-identical to a serial run.  Serial runs
    additionally hand back each parsed :class:`ModuleInfo` so the project
    phase can reuse it; workers drop theirs rather than pickle an AST.
    """
    tasks = [(str(path), rel, source) for path, rel, source in pending]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=min(jobs, len(tasks)),
                                  initializer=_init_worker,
                                  initargs=(tuple(rules),)) as pool:
            return pool.map(_check_one_worker, tasks, chunksize=4)
    return [_check_one(task, rules) for task in tasks]


def lint_paths(paths: Iterable[Path], root: Path, rules: Sequence[Rule],
               baseline: Optional[Set[str]] = None,
               cache: Optional["LintCache"] = None,
               jobs: int = 1) -> LintResult:
    """Lint every ``.py`` file under ``paths``.

    ``root`` anchors the relative paths recorded in findings (and therefore
    baseline keys); ``baseline`` holds keys of grandfathered findings to
    hide from the result.  ``cache`` (a
    :class:`repro.lint.cache.LintCache`) serves per-file findings keyed by
    content hash: a hit skips parsing and rule visits entirely, a miss is
    checked cold and stored, so results are identical with or without it.

    Runs in two phases.  Phase 1 applies file-scope rules per file —
    cacheable per content hash and, with ``jobs > 1``, fanned out over a
    process pool.  Phase 2 builds the whole-program symbol graph and
    applies project-scope rules (:class:`ProjectRule`); their findings are
    cached per file but keyed additionally by :func:`tree_fingerprint`, so
    *any* source change re-runs the project phase exactly once while
    leaving per-file entries warm.  Findings are globally sorted, so
    serial, parallel, cold and warm runs all report identically.
    """
    root = root.resolve()
    findings: List[Finding] = []
    files = iter_python_files(paths)
    file_rules = [rule for rule in rules if rule.scope == "file"]
    project_rules = [rule for rule in rules if rule.scope == "project"]
    cache_hits = 0
    project_hits = 0
    order: List[str] = []
    paths_by_rel: Dict[str, Path] = {}
    sources: Dict[str, str] = {}
    modules: Dict[str, ModuleInfo] = {}
    unparseable: Set[str] = set()
    pending: List[Tuple[Path, str, str]] = []
    for path in files:
        rel = _relative_posix(path, root)
        source = path.read_text(encoding="utf-8")
        order.append(rel)
        paths_by_rel[rel] = path
        sources[rel] = source
        if cache is not None:
            cached = cache.get(rel, source)
            if cached is not None:
                findings.extend(cached)
                cache_hits += 1
                continue
        pending.append((path, rel, source))
    for rel, file_findings, module, failed in _run_file_phase(
            pending, file_rules, jobs):
        if failed:
            unparseable.add(rel)
        elif module is not None:
            modules[rel] = module
        if cache is not None:
            cache.put(rel, sources[rel], file_findings)
        findings.extend(file_findings)
    if project_rules and order:
        tree = tree_fingerprint({rel: _sha256(sources[rel])
                                 for rel in order})
        missing: List[str] = []
        project_cached: Dict[str, List[Finding]] = {}
        for rel in order:
            hit = (cache.get_project(rel, sources[rel], tree)
                   if cache is not None else None)
            if hit is None:
                missing.append(rel)
            else:
                project_cached[rel] = hit
                project_hits += 1
        if missing:
            for rel in order:
                if rel in modules or rel in unparseable:
                    continue
                module, failure = _load_module(paths_by_rel[rel], rel,
                                               sources[rel])
                if failure is not None:
                    unparseable.add(rel)
                else:
                    assert module is not None
                    modules[rel] = module
            from repro.lint.dataflow import SymbolGraph

            graph = SymbolGraph(list(modules.values()))
            for rel in missing:
                module = modules.get(rel)
                if module is None:
                    project_findings: List[Finding] = []
                else:
                    project_findings = lint_module_project(
                        module, graph, project_rules)
                if cache is not None:
                    cache.put_project(rel, sources[rel], tree,
                                      project_findings)
                findings.extend(project_findings)
        for rel in order:
            findings.extend(project_cached.get(rel, []))
    if cache is not None:
        cache.save()
    visible, baselined = apply_baseline(sorted(findings), baseline or set())
    return LintResult(findings=visible, files_scanned=len(files),
                      baselined=baselined, cache_hits=cache_hits,
                      project_cache_hits=project_hits)


def _sha256(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def apply_baseline(findings: Sequence[Finding],
                   baseline: Set[str]) -> Tuple[List[Finding], int]:
    """Split findings into (visible, grandfathered-count)."""
    visible = [f for f in findings if f.key() not in baseline]
    return visible, len(findings) - len(visible)


def load_baseline(path: Path) -> Set[str]:
    """Read a baseline file; a missing file is an empty baseline."""
    if not path.exists():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    return set(data.get("findings", []))


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Write the baseline for ``findings`` (sorted keys, stable output)."""
    payload = {
        "version": 1,
        "tool": "repro.lint",
        "findings": sorted({finding.key() for finding in findings}),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
