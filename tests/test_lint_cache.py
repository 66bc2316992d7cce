"""The incremental lint cache: hit accounting, invalidation triggers,
corruption fallback, byte-identical findings, and the warm-tree speedup."""

import json
import time
from pathlib import Path

import pytest

import repro
from repro.lint import (
    LintCache,
    RULES,
    get_rules,
    lint_paths,
    rule_fingerprint,
)
from repro.lint.cache import CACHE_FILE_NAME, _content_digest
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

CLEAN = '''\
"""A clean module."""

__all__ = ["answer"]


def answer():
    """Return a constant."""
    return 42
'''

DIRTY = '"""Doc."""\n\n__all__ = []\n\nRATE = 1e9\n'


def make_tree(tmp_path, count=4, dirty=0):
    """Write ``count`` fixture modules, the first ``dirty`` with a REP003
    violation, and return their paths."""
    paths = []
    for index in range(count):
        path = tmp_path / "repro" / f"mod{index}.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(DIRTY if index < dirty else CLEAN)
        paths.append(path)
    return paths


def run(tmp_path, cache=None, rules=RULES):
    return lint_paths([tmp_path / "repro"], tmp_path, rules, cache=cache)


def cache_at(tmp_path, rules=RULES, **kwargs):
    return LintCache(tmp_path / "lint-cache", rules, **kwargs)


class TestCacheHits:
    def test_cold_run_has_no_hits_and_populates(self, tmp_path):
        make_tree(tmp_path)
        result = run(tmp_path, cache_at(tmp_path))
        assert result.cache_hits == 0
        assert (tmp_path / "lint-cache" / CACHE_FILE_NAME).is_file()

    def test_warm_run_hits_every_file_with_identical_findings(
            self, tmp_path):
        make_tree(tmp_path, dirty=2)
        cold = run(tmp_path, cache_at(tmp_path))
        warm = run(tmp_path, cache_at(tmp_path))
        assert warm.cache_hits == warm.files_scanned == 4
        assert warm.findings == cold.findings
        no_cache = run(tmp_path)
        assert warm.findings == no_cache.findings

    def test_editing_one_file_relints_only_that_file(self, tmp_path):
        paths = make_tree(tmp_path)
        run(tmp_path, cache_at(tmp_path))
        paths[1].write_text(DIRTY)
        result = run(tmp_path, cache_at(tmp_path))
        assert result.cache_hits == 3
        assert [f.rule for f in result.findings] == ["REP003"]
        assert result.findings[0].path == "repro/mod1.py"

    def test_rule_selection_change_forces_full_relint(self, tmp_path):
        make_tree(tmp_path)
        run(tmp_path, cache_at(tmp_path))
        subset = get_rules(["REP003"])
        assert rule_fingerprint(subset) != rule_fingerprint(RULES)
        result = run(tmp_path, cache_at(tmp_path, rules=subset),
                     rules=subset)
        assert result.cache_hits == 0

    def test_engine_version_bump_forces_full_relint(self, tmp_path):
        make_tree(tmp_path)
        run(tmp_path, cache_at(tmp_path))
        bumped = run(tmp_path, cache_at(tmp_path, engine_version=999))
        assert bumped.cache_hits == 0
        rewarmed = run(tmp_path, cache_at(tmp_path, engine_version=999))
        assert rewarmed.cache_hits == rewarmed.files_scanned

    def test_parse_failures_are_cached_too(self, tmp_path):
        path = tmp_path / "repro" / "broken.py"
        path.parent.mkdir(parents=True)
        path.write_text("def broken(:\n")
        cold = run(tmp_path, cache_at(tmp_path))
        warm = run(tmp_path, cache_at(tmp_path))
        assert warm.cache_hits == 1
        assert warm.findings == cold.findings
        assert [f.rule for f in warm.findings] == ["REP000"]

    def test_all_hit_run_does_not_rewrite_the_cache_file(self, tmp_path):
        make_tree(tmp_path)
        run(tmp_path, cache_at(tmp_path))
        cache_file = tmp_path / "lint-cache" / CACHE_FILE_NAME
        before = cache_file.read_bytes()
        stamp = cache_file.stat().st_mtime_ns
        run(tmp_path, cache_at(tmp_path))
        assert cache_file.read_bytes() == before
        assert cache_file.stat().st_mtime_ns == stamp


class TestCorruption:
    """A damaged cache degrades to a cold run; it never crashes or lies."""

    def damage_then_run(self, tmp_path, content):
        cache_file = tmp_path / "lint-cache" / CACHE_FILE_NAME
        cache_file.write_text(content)
        result = run(tmp_path, cache_at(tmp_path))
        clean = run(tmp_path)
        assert result.findings == clean.findings
        return result

    def test_garbage_bytes(self, tmp_path):
        make_tree(tmp_path, dirty=1)
        run(tmp_path, cache_at(tmp_path))
        result = self.damage_then_run(tmp_path, "\x00not json at all\x7f")
        assert result.cache_hits == 0

    def test_truncated_json(self, tmp_path):
        make_tree(tmp_path, dirty=1)
        run(tmp_path, cache_at(tmp_path))
        cache_file = tmp_path / "lint-cache" / CACHE_FILE_NAME
        halved = cache_file.read_text()[: cache_file.stat().st_size // 2]
        result = self.damage_then_run(tmp_path, halved)
        assert result.cache_hits == 0

    def test_wrong_toplevel_types(self, tmp_path):
        make_tree(tmp_path, dirty=1)
        run(tmp_path, cache_at(tmp_path))
        for payload in ('[]', '{"files": []}', '{"files": 7}', 'null'):
            result = self.damage_then_run(tmp_path, payload)
            assert result.cache_hits == 0

    def test_malformed_entry_is_a_miss_not_a_crash(self, tmp_path):
        make_tree(tmp_path, count=1, dirty=1)
        cache = cache_at(tmp_path)
        run(tmp_path, cache)
        source = (tmp_path / "repro" / "mod0.py").read_text()
        # Right digest, nonsense findings: the entry must be rejected.
        payload = {
            "version": 1,
            "tool": "repro.lint",
            "engine_version": cache.engine_version,
            "rule_fingerprint": cache.fingerprint,
            "files": {
                "repro/mod0.py": {
                    "sha256": _content_digest(source),
                    "findings": [["not", "a", "dict"], {"path": "x"}],
                },
            },
        }
        result = self.damage_then_run(tmp_path, json.dumps(payload))
        assert result.cache_hits == 0
        assert [f.rule for f in result.findings] == ["REP003"]

    def test_interrupted_save_leaves_the_previous_file_whole(
            self, tmp_path, monkeypatch):
        make_tree(tmp_path, dirty=1)
        run(tmp_path, cache_at(tmp_path))
        cache_file = tmp_path / "lint-cache" / CACHE_FILE_NAME
        before = cache_file.read_bytes()
        assert before == (json.dumps(json.loads(before), indent=2,
                                     sort_keys=True) + "\n").encode()

        def crash(src, dst):
            raise OSError("killed mid-save")

        monkeypatch.setattr("repro.lint.cache.os.replace", crash)
        (tmp_path / "repro" / "mod0.py").write_text("CHANGED = 1\n")
        with pytest.raises(OSError, match="mid-save"):
            run(tmp_path, cache_at(tmp_path))
        assert cache_file.read_bytes() == before


class TestCliCache:
    def violations_tree(self, tmp_path):
        make_tree(tmp_path, dirty=2)
        return ["--root", str(tmp_path), "--no-baseline",
                str(tmp_path / "repro")]

    def test_cached_json_findings_byte_identical_to_no_cache(
            self, tmp_path, capsys):
        args = self.violations_tree(tmp_path) + ["--format", "json"]
        lint_main(args)
        cold = capsys.readouterr().out
        lint_main(args)
        warm = capsys.readouterr().out
        lint_main(args + ["--no-cache"])
        uncached = capsys.readouterr().out
        # The cold cached run and the uncached run agree byte-for-byte;
        # the warm run differs only in its hit counter.
        assert cold == uncached
        warm_doc, uncached_doc = json.loads(warm), json.loads(uncached)
        assert (json.dumps(warm_doc["findings"])
                == json.dumps(uncached_doc["findings"]))
        assert warm_doc["errors"] == uncached_doc["errors"]
        assert warm_doc["cache_hits"] == warm_doc["files_scanned"] == 4

    def test_text_summary_reports_cache_hits(self, tmp_path, capsys):
        args = self.violations_tree(tmp_path)
        lint_main(args)
        capsys.readouterr()
        lint_main(args)
        assert "4 cached" in capsys.readouterr().out

    def test_stats_flag_reports_hits_and_wall_time(self, tmp_path, capsys):
        args = self.violations_tree(tmp_path) + ["--stats"]
        lint_main(args)
        capsys.readouterr()
        lint_main(args)
        out = capsys.readouterr().out
        assert "stats:" in out and "cache hit(s) (100%)" in out
        assert "wall time" in out

    def test_stats_in_json_payload(self, tmp_path, capsys):
        args = self.violations_tree(tmp_path) + ["--format", "json",
                                                 "--stats"]
        lint_main(args)
        capsys.readouterr()
        lint_main(args)
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["cache_hits"] == doc["stats"]["files_scanned"]
        assert doc["stats"]["wall_time_seconds"] >= 0

    def test_no_cache_flag_creates_no_cache_dir(self, tmp_path, capsys):
        lint_main(self.violations_tree(tmp_path) + ["--no-cache"])
        capsys.readouterr()
        assert not (tmp_path / ".repro-lint-cache").exists()

    def test_default_and_explicit_cache_dirs(self, tmp_path, capsys):
        lint_main(self.violations_tree(tmp_path))
        capsys.readouterr()
        assert (tmp_path / ".repro-lint-cache" / CACHE_FILE_NAME).is_file()
        elsewhere = tmp_path / "elsewhere"
        lint_main(self.violations_tree(tmp_path)
                  + ["--cache-dir", str(elsewhere)])
        capsys.readouterr()
        assert (elsewhere / CACHE_FILE_NAME).is_file()

    def test_write_baseline_also_warms_the_cache(self, tmp_path, capsys):
        args = self.violations_tree(tmp_path)
        assert lint_main(args[:2] + args[3:] + ["--write-baseline"]) == 0
        capsys.readouterr()
        lint_main(args)
        assert "4 cached" in capsys.readouterr().out


@pytest.mark.skipif(not SRC.is_dir(),
                    reason="requires the src-layout checkout")
class TestWarmTreeSpeedup:
    def test_warm_run_is_at_least_5x_faster(self, tmp_path):
        cache_dir = tmp_path / "lint-cache"
        started = time.perf_counter()
        cold = lint_paths([SRC], REPO_ROOT, RULES,
                          cache=LintCache(cache_dir, RULES))
        cold_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        warm = lint_paths([SRC], REPO_ROOT, RULES,
                          cache=LintCache(cache_dir, RULES))
        warm_elapsed = time.perf_counter() - started
        assert warm.cache_hits == warm.files_scanned == cold.files_scanned
        assert warm.findings == cold.findings
        assert warm_elapsed * 5 < cold_elapsed, (
            f"warm {warm_elapsed:.3f}s vs cold {cold_elapsed:.3f}s")


#: A module only the REP011-REP013 dataflow phase objects to.
UNORDERED = '''\
"""Fans out over a set."""

__all__ = ["fan_out"]


def fan_out(nodes):
    """Visit every node (in whatever order the set yields)."""
    for node in set(nodes):
        print(node)
'''


class TestRuleSetFingerprintInvalidation:
    def test_adding_dataflow_rules_cold_invalidates_exactly_once(
            self, tmp_path):
        """Changing the active rule set mid-run (REP001-010 -> full
        catalog with REP011-013) must cold-invalidate every entry exactly
        once: no stale findings served, and no double invalidation on the
        following run."""
        make_tree(tmp_path)
        (tmp_path / "repro" / "sweep.py").write_text(UNORDERED)
        file_rules = get_rules([f"REP{n:03d}" for n in range(1, 11)])

        first = run(tmp_path, cache_at(tmp_path, rules=file_rules),
                    rules=file_rules)
        assert first.cache_hits == 0
        assert first.findings == []          # REP011 not active yet

        warm = run(tmp_path, cache_at(tmp_path, rules=file_rules),
                   rules=file_rules)
        assert warm.cache_hits == warm.files_scanned == 5

        # The fingerprint differs, so the first full-catalog run is cold
        # everywhere -- and surfaces the REP011 finding immediately
        # rather than serving the stale empty result.
        widened = run(tmp_path, cache_at(tmp_path))
        assert widened.cache_hits == 0
        assert [f.rule for f in widened.findings] == ["REP011"]
        no_cache = run(tmp_path)
        assert widened.findings == no_cache.findings

        # Exactly once: the next full-catalog run is warm in both phases.
        settled = run(tmp_path, cache_at(tmp_path))
        assert settled.cache_hits == settled.files_scanned == 5
        assert settled.project_cache_hits == 5
        assert settled.findings == widened.findings

    def test_fingerprints_differ_between_rule_sets(self):
        file_rules = get_rules([f"REP{n:03d}" for n in range(1, 11)])
        assert rule_fingerprint(file_rules) != rule_fingerprint(RULES)


class TestProjectPhaseCache:
    def test_editing_one_file_reruns_project_phase_once(self, tmp_path):
        """File-scope entries for untouched files stay warm, but project
        findings depend on the whole tree: one edit misses every project
        entry, and the following run is fully warm again."""
        paths = make_tree(tmp_path)
        (tmp_path / "repro" / "sweep.py").write_text(UNORDERED)
        cold = run(tmp_path, cache_at(tmp_path))
        assert cold.project_cache_hits == 0

        paths[0].write_text(CLEAN.replace("42", "43"))
        edited = run(tmp_path, cache_at(tmp_path))
        assert edited.cache_hits == 4            # all but the edited file
        assert edited.project_cache_hits == 0    # tree changed everywhere
        assert [f.rule for f in edited.findings] == ["REP011"]

        warm = run(tmp_path, cache_at(tmp_path))
        assert warm.cache_hits == 5
        assert warm.project_cache_hits == 5
        assert warm.findings == edited.findings


class TestParallelLint:
    def test_parallel_findings_identical_to_serial(self, tmp_path):
        """-j N is a pure throughput knob: findings, order, and counts
        match a serial run exactly."""
        make_tree(tmp_path, dirty=2)
        (tmp_path / "repro" / "sweep.py").write_text(UNORDERED)
        serial = lint_paths([tmp_path / "repro"], tmp_path, RULES)
        parallel = lint_paths([tmp_path / "repro"], tmp_path, RULES,
                              jobs=2)
        assert parallel.findings == serial.findings
        assert parallel.files_scanned == serial.files_scanned

    def test_cli_jobs_flag(self, tmp_path, capsys):
        make_tree(tmp_path, dirty=1)
        code = lint_main(["--root", str(tmp_path), "--no-baseline",
                          "--no-cache", "-j", "2", "--format", "json",
                          str(tmp_path / "repro")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["errors"] > 0

    def test_cli_rejects_negative_jobs(self, tmp_path, capsys):
        make_tree(tmp_path)
        code = lint_main(["--root", str(tmp_path), "-j", "-3",
                          str(tmp_path / "repro")])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err
