"""The experiment result cache and fleet runner: hit accounting,
code/config invalidation, corruption fallback, byte-identical
warm-vs-cold summaries, shard-count independence, finished points kept
when another raises, divergence detection and paper-claim checks —
mirroring tests/test_lint_cache.py for the xp layer."""

import importlib.util
import json
import time
from pathlib import Path

import pytest

from repro.lint.engine import ImportGraph
from repro.xp import (
    Claim,
    ExperimentSpec,
    PointSpec,
    ResultCache,
    canonical_json,
    code_fingerprints,
    run_fleet,
    write_bench_artifact,
)

# -- synthetic experiment -----------------------------------------------------
#
# Module-level run functions: sharded points cross a process-pool
# boundary, so they must pickle by reference (tests/ is a package).


def toy_run(config):
    """Deterministic toy point: summary derived from the config."""
    return {"value": int(config["x"]) * 2}


def failing_run(config):
    """Toy point that raises when ``config["fail"]`` is set.

    It raises only once another point's entry is in the cache directory
    ``config["cache"]`` (or after 10 s), so under ``-j`` the other point
    has finished first whatever the pool's scheduling.
    """
    if not config.get("fail"):
        return toy_run(config)
    deadline = time.monotonic() + 10.0
    while (not list(Path(config["cache"]).glob("*/*.json"))
           and time.monotonic() < deadline):
        time.sleep(0.01)
    raise RuntimeError("point failed")


#: Synthetic source tree: entry imports core (transitively via the
#: package __init__'s relative import too); other.py stays outside the
#: closure.
_TREE = {
    "pkg/__init__.py": '"""Pkg."""\nfrom . import core\n',
    "pkg/core.py": '"""Core."""\nVALUE = 1\n',
    "pkg/entry.py": '"""Entry."""\nimport pkg.core\n',
    "pkg/other.py": '"""Other."""\nUNRELATED = True\n',
}


def make_src(tmp_path):
    """Write the synthetic package tree; returns its src root."""
    src = tmp_path / "src"
    for rel, text in sorted(_TREE.items()):
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return src


def toy_spec(points=None, run=toy_run, claims=()):
    return ExperimentSpec(
        name="toy", run=run,
        points=points or (PointSpec(name="a", config={"x": 1}),
                          PointSpec(name="b", config={"x": 2})),
        code_roots=("pkg/entry.py",),
        claims=claims,
    )


def fleet(tmp_path, src, **kwargs):
    kwargs.setdefault("cache", ResultCache(tmp_path / "xp-cache"))
    return run_fleet([toy_spec()], src_root=src, **kwargs)


# -- import closure -----------------------------------------------------------

class TestImportClosure:
    def test_closure_follows_transitive_imports(self, tmp_path):
        src = make_src(tmp_path)
        shas = ImportGraph(src).closure([src / "pkg" / "entry.py"])
        assert set(shas) == {"pkg/entry.py", "pkg/__init__.py",
                             "pkg/core.py"}

    def test_closure_excludes_unimported_files(self, tmp_path):
        src = make_src(tmp_path)
        shas = ImportGraph(src).closure([src / "pkg" / "entry.py"])
        assert "pkg/other.py" not in shas

    def test_closure_resolves_member_origins(self, tmp_path):
        src = make_src(tmp_path)
        (src / "pkg" / "entry.py").write_text(
            '"""Entry."""\nfrom pkg.core import VALUE\n')
        shas = ImportGraph(src).closure([src / "pkg" / "entry.py"])
        assert "pkg/core.py" in shas

    def test_closure_ignores_stdlib_and_third_party(self, tmp_path):
        src = make_src(tmp_path)
        (src / "pkg" / "entry.py").write_text(
            '"""Entry."""\nimport json\nimport collections.abc\n')
        shas = ImportGraph(src).closure([src / "pkg" / "entry.py"])
        assert set(shas) == {"pkg/entry.py"}

    def test_graph_reads_each_file_once(self, tmp_path, monkeypatch):
        src = make_src(tmp_path)
        reads = []
        read = ImportGraph._read

        def counting_read(self, path, rel):
            reads.append(rel)
            return read(self, path, rel)

        monkeypatch.setattr(ImportGraph, "_read", counting_read)
        graph = ImportGraph(src)
        graph.closure([src / "pkg" / "entry.py"])
        shas = graph.closure([src / "pkg" / "entry.py",
                              src / "pkg" / "other.py"])
        assert len(shas) == 4
        assert sorted(reads) == sorted(set(reads)) == sorted(shas)

    def test_fingerprint_changes_with_closure_content(self, tmp_path):
        src = make_src(tmp_path)
        before = code_fingerprints([toy_spec()], src)
        (src / "pkg" / "core.py").write_text('"""Core."""\nVALUE = 2\n')
        assert code_fingerprints([toy_spec()], src) != before

    def test_fingerprint_stable_against_outside_edits(self, tmp_path):
        src = make_src(tmp_path)
        before = code_fingerprints([toy_spec()], src)
        (src / "pkg" / "other.py").write_text('"""Other."""\nX = 9\n')
        assert code_fingerprints([toy_spec()], src) == before


# -- cache hits + invalidation ------------------------------------------------

class TestCacheHits:
    def test_cold_run_has_no_hits_and_populates(self, tmp_path):
        src = make_src(tmp_path)
        result = fleet(tmp_path, src)
        assert result.hits == 0 and result.misses == 2
        entries = list((tmp_path / "xp-cache" / "toy").glob("*.json"))
        assert len(entries) == 2

    def test_warm_run_hits_every_point_with_identical_summaries(
            self, tmp_path):
        src = make_src(tmp_path)
        cold = fleet(tmp_path, src)
        warm = fleet(tmp_path, src)
        assert warm.hits == warm.points == 2
        assert warm.hit_rate == 1.0
        # Byte-identical, in the canonical form the cache contract is
        # defined over.
        assert (canonical_json(warm.summaries())
                == canonical_json(cold.summaries()))

    def test_code_edit_invalidates_affected_experiment(self, tmp_path):
        src = make_src(tmp_path)
        fleet(tmp_path, src)
        (src / "pkg" / "core.py").write_text('"""Core."""\nVALUE = 2\n')
        result = fleet(tmp_path, src)
        assert result.hits == 0 and result.misses == 2

    def test_edit_outside_closure_keeps_points_warm(self, tmp_path):
        src = make_src(tmp_path)
        fleet(tmp_path, src)
        (src / "pkg" / "other.py").write_text('"""Other."""\nX = 9\n')
        result = fleet(tmp_path, src)
        assert result.hits == 2

    def test_config_edit_invalidates_that_point_only(self, tmp_path):
        src = make_src(tmp_path)
        fleet(tmp_path, src)
        changed = [toy_spec(points=(
            PointSpec(name="a", config={"x": 1}),
            PointSpec(name="b", config={"x": 3}),   # was x=2
        ))]
        result = run_fleet(changed, src_root=src,
                           cache=ResultCache(tmp_path / "xp-cache"))
        assert result.hits == 1 and result.misses == 1
        assert [r.point for r in result.results if not r.cached] == ["b"]

    def test_no_cache_object_recomputes_silently(self, tmp_path):
        src = make_src(tmp_path)
        result = fleet(tmp_path, src, cache=None)
        assert result.hits == 0 and result.divergences == []

    def test_run_function_edit_invalidates_its_points(self, tmp_path):
        """The file defining ``run`` is part of the code fingerprint, so
        editing a run function re-runs its points even though no
        ``code_roots`` closure reaches that file."""
        src = make_src(tmp_path)
        module_path = src / "pkg" / "runs.py"
        module_path.write_text(
            '"""Runs."""\n\n\ndef run(config):\n'
            '    return {"value": config["x"]}\n')
        loader = importlib.util.spec_from_file_location(
            "xp_toy_runs", module_path)
        module = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(module)
        spec = toy_spec(run=module.run)
        cache = ResultCache(tmp_path / "xp-cache")
        assert run_fleet([spec], src_root=src,
                         cache=cache).misses == 2
        assert run_fleet([spec], src_root=src,
                         cache=cache).hits == 2
        module_path.write_text(module_path.read_text().replace(
            'config["x"]', '-1'))
        result = run_fleet([spec], src_root=src, cache=cache)
        assert result.hits == 0 and result.misses == 2


# -- corruption ---------------------------------------------------------------

class TestCorruption:
    def _entries(self, tmp_path):
        return sorted((tmp_path / "xp-cache" / "toy").glob("*.json"))

    def test_truncated_entry_recovers_cold(self, tmp_path):
        src = make_src(tmp_path)
        cold = fleet(tmp_path, src)
        victim = self._entries(tmp_path)[0]
        victim.write_text(victim.read_text()[:20])
        result = fleet(tmp_path, src)
        assert result.hits == 1 and result.misses == 1
        assert (canonical_json(result.summaries())
                == canonical_json(cold.summaries()))
        # The recomputed point was re-stored intact.
        assert fleet(tmp_path, src).hits == 2

    def test_garbage_entry_recovers_cold(self, tmp_path):
        src = make_src(tmp_path)
        fleet(tmp_path, src)
        victim = self._entries(tmp_path)[0]
        victim.write_text('{"not": "an entry"}')
        assert fleet(tmp_path, src).misses == 1

    def test_identity_echo_mismatch_is_a_miss(self, tmp_path):
        src = make_src(tmp_path)
        fleet(tmp_path, src)
        victim = self._entries(tmp_path)[0]
        data = json.loads(victim.read_text())
        data["point"] = "somebody-else"
        victim.write_text(json.dumps(data))
        assert fleet(tmp_path, src).misses == 1

    def test_put_is_atomic_no_tmp_left_behind(self, tmp_path):
        src = make_src(tmp_path)
        fleet(tmp_path, src)
        leftovers = list((tmp_path / "xp-cache").rglob("*.tmp"))
        assert leftovers == []


# -- sharding -----------------------------------------------------------------

class TestSharding:
    def test_shard_count_independence(self, tmp_path):
        """-j 1 vs -j 4: identical merged results."""
        src = make_src(tmp_path)
        points = tuple(PointSpec(name=f"p{i}", config={"x": i})
                       for i in range(8))
        serial = run_fleet([toy_spec(points=points)], src_root=src,
                           cache=ResultCache(tmp_path / "c1"), jobs=1)
        sharded = run_fleet([toy_spec(points=points)], src_root=src,
                            cache=ResultCache(tmp_path / "c2"), jobs=4)
        assert (canonical_json(serial.summaries())
                == canonical_json(sharded.summaries()))
        assert ([(r.experiment, r.point) for r in serial.results]
                == [(r.experiment, r.point) for r in sharded.results])

    def test_sharded_cold_then_serial_warm(self, tmp_path):
        src = make_src(tmp_path)
        cache = ResultCache(tmp_path / "xp-cache")
        cold = run_fleet([toy_spec()], src_root=src, cache=cache, jobs=4)
        warm = run_fleet([toy_spec()], src_root=src, cache=cache, jobs=1)
        assert warm.hits == 2
        assert (canonical_json(warm.summaries())
                == canonical_json(cold.summaries()))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_finished_points_survive_a_raising_point(self, tmp_path,
                                                     jobs):
        """A point that raises aborts the run, but every point that
        finished before it is already stored: a rerun serves it."""
        src = make_src(tmp_path)
        cache = ResultCache(tmp_path / "xp-cache")
        ok = PointSpec(name="a", config={"x": 1})
        failing = PointSpec(name="b", config={
            "x": 2, "fail": True, "cache": str(cache.directory)})
        with pytest.raises(RuntimeError, match="point failed"):
            run_fleet([toy_spec(points=(ok, failing), run=failing_run)],
                      src_root=src, cache=cache, jobs=jobs)
        rerun = run_fleet([toy_spec(points=(ok,), run=failing_run)],
                          src_root=src, cache=cache)
        assert rerun.hits == 1
        assert rerun.summaries() == {"toy": {"a": {"value": 2}}}


# -- divergence ---------------------------------------------------------------

class TestDivergence:
    def test_no_cache_mode_flags_divergent_summary(self, tmp_path):
        src = make_src(tmp_path)
        cache = ResultCache(tmp_path / "xp-cache")
        spec = toy_spec()
        code = code_fingerprints([spec], src)["toy"]
        cache.put("toy", "a", code, {"x": 1}, {"value": 999})
        result = run_fleet([spec], src_root=src, cache=cache,
                           serve_hits=False)
        assert len(result.divergences) == 1
        assert result.divergences[0].point == "a"
        assert result.exit_code == 1
        # The verification pass refreshed the entry with the truth.
        follow_up = run_fleet([spec], src_root=src,
                              cache=cache, serve_hits=False)
        assert follow_up.divergences == []

    def test_matching_recompute_is_not_divergence(self, tmp_path):
        src = make_src(tmp_path)
        cache = ResultCache(tmp_path / "xp-cache")
        run_fleet([toy_spec()], src_root=src, cache=cache)
        verify = run_fleet([toy_spec()], src_root=src,
                           cache=cache, serve_hits=False)
        assert verify.hits == 0          # everything recomputed
        assert verify.divergences == []  # and everything matched
        assert verify.exit_code == 0


# -- paper claims -------------------------------------------------------------

def value_is_even(points):
    return all(s["value"] % 2 == 0 for s in points.values())


def value_exceeds_two(points):
    return all(s["value"] > 2 for s in points.values())


_CLAIMS = (Claim("value_is_even", 1, value_is_even),
           Claim("value_exceeds_two", 5, value_exceeds_two))


class TestClaims:
    def test_broken_claim_is_named_and_fails_the_run(self, tmp_path):
        src = make_src(tmp_path)
        result = run_fleet([toy_spec(claims=_CLAIMS)], src_root=src,
                           cache=ResultCache(tmp_path / "xp-cache"))
        assert result.claims_checked == 2
        assert [(b.experiment, b.claim, b.paper_claim)
                for b in result.broken_claims] == [
                    ("toy", "value_exceeds_two", 5)]
        assert result.divergences == []
        assert result.exit_code == 1

    def test_claims_checked_on_a_fully_warm_run(self, tmp_path):
        src = make_src(tmp_path)
        cache = ResultCache(tmp_path / "xp-cache")
        run_fleet([toy_spec(claims=_CLAIMS)], src_root=src, cache=cache)
        warm = run_fleet([toy_spec(claims=_CLAIMS)], src_root=src,
                         cache=cache)
        assert warm.hits == warm.points == 2
        assert warm.claims_checked == 2
        assert [b.claim for b in warm.broken_claims] == [
            "value_exceeds_two"]
        assert warm.exit_code == 1

    def test_holding_claims_exit_zero(self, tmp_path):
        src = make_src(tmp_path)
        result = run_fleet([toy_spec(claims=_CLAIMS[:1])],
                           src_root=src, cache=None)
        assert result.claims_checked == 1
        assert result.broken_claims == [] and result.exit_code == 0

    def test_spec_without_claims_checks_none(self, tmp_path):
        src = make_src(tmp_path)
        spec = toy_spec()
        assert spec.claims == ()
        result = run_fleet([spec], src_root=src,
                           cache=ResultCache(tmp_path / "c"))
        assert result.claims_checked == 0
        assert result.broken_claims == [] and result.exit_code == 0

    def test_e09_holds_every_claim_through_the_fleet(self, tmp_path):
        from repro.xp import get_experiments

        specs = get_experiments(["e09_checkpoint_ablation"])
        result = run_fleet(specs, cache=ResultCache(tmp_path / "c"))
        assert result.claims_checked == len(specs[0].claims) == 8
        assert result.broken_claims == []
        assert result.exit_code == 0


# -- artifacts ----------------------------------------------------------------

class TestArtifacts:
    def test_write_is_atomic_and_deterministic(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_bench_artifact(path, {"results": {"a": 1}},
                             required=("results",))
        assert json.loads(path.read_text())["results"] == {"a": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_refuses_missing_required_section(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        with pytest.raises(ValueError, match="missing or empty"):
            write_bench_artifact(path, {"other": 1},
                                 required=("results",))
        assert not path.exists()

    def test_refuses_empty_required_section(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        with pytest.raises(ValueError, match="results"):
            write_bench_artifact(path, {"results": {}},
                                 required=("results",))

    def test_refusal_preserves_previous_complete_artifact(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_bench_artifact(path, {"results": {"a": 1}},
                             required=("results",))
        with pytest.raises(ValueError):
            write_bench_artifact(path, {"results": {}},
                                 required=("results",))
        assert json.loads(path.read_text())["results"] == {"a": 1}


# -- registered experiments ---------------------------------------------------

class TestRegistry:
    def test_registry_names_and_selection(self):
        from repro.xp import EXPERIMENTS, get_experiments

        names = [spec.name for spec in EXPERIMENTS]
        assert names == [
            "e01_tech_curves", "e02_petaflops_crossing",
            "e03_node_architectures", "e04_interconnects",
            "e05_app_scaling", "e06_density", "e07_scheduling",
            "e08_fault_scale", "e09_checkpoint_ablation",
            "e10_pim_ablation", "e11_cost_performance",
            "e12_top500_extrapolation", "e13_ablations",
            "e14_checkpoint_io_wall", "e15_fault_aware_operation",
            "e16_history_validation", "e17_fleet_evolution",
            "e18_noncontiguous_io", "e19_decomposition",
            "e20_fault_campaigns", "e21_detection_tradeoff",
            "e22_jobs_service", "e23_gossip_membership",
        ]
        assert len(set(names)) == len(names)
        for spec in EXPERIMENTS:
            claim_names = [claim.name for claim in spec.claims]
            assert claim_names, f"{spec.name} has no claims"
            assert len(set(claim_names)) == len(claim_names), spec.name
            for claim in spec.claims:
                assert claim.paper_claim in range(1, 7), claim.name
        assert sum(len(spec.claims) for spec in EXPERIMENTS) == 161
        assert [s.name for s in get_experiments(["e22_jobs_service"])] \
            == ["e22_jobs_service"]
        with pytest.raises(ValueError, match="unknown experiment"):
            get_experiments(["nope"])

    def test_e22_effect_claim_counts_every_job_id(self):
        """An effect on a job id past the trace's 24 (a duplicate
        submission that became a new job) breaks the exactly-once
        claim, as a missing or doubled effect does."""
        from repro.xp import get_experiments
        from repro.xp.experiments import _effects_per_job

        spec, = get_experiments(["e22_jobs_service"])
        claim, = [c for c in spec.claims
                  if c.name == "every_effect_lands_exactly_once"]
        log = "".join(f"0.{job} seq={job} effect job={job} token=1\n"
                      for job in range(1, 25))
        assert _effects_per_job(log) == [1] * 24
        assert _effects_per_job("") == [0] * 24
        extra = log + "0.3 seq=30 effect job=26 token=1\n"
        counts = _effects_per_job(extra)
        assert counts[:24] == [1] * 24
        assert counts[24:] == [0, 1]
        for text, holds in ((log, True), (extra, False),
                            (log.replace("job=7 ", "job=8 "), False)):
            summary = {"effects_per_job": _effects_per_job(text)}
            assert claim.check({"crash2": summary,
                                "clean": summary}) is holds

    def test_registered_code_roots_exist_and_fingerprint(self):
        from repro.xp import EXPERIMENTS
        from repro.xp.fingerprint import default_src_root

        src = default_src_root()
        for spec in EXPERIMENTS:
            for root in spec.code_roots:
                assert (src / root).is_file(), root
        digests = code_fingerprints(EXPERIMENTS, src)
        assert sorted(digests) == sorted(s.name for s in EXPERIMENTS)
        assert all(len(digest) == 64 for digest in digests.values())
