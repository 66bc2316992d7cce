"""Unit tests for the repro.lint engine: one positive and one negative
fixture per rule, suppression comments, and the baseline round trip."""

import json
import textwrap

import pytest

from repro.lint import (
    RULES,
    Finding,
    get_rules,
    lint_paths,
    load_baseline,
    write_baseline,
)
from repro.lint.cli import main as lint_main


def run_lint(tmp_path, source, codes=None, filename="repro/model.py"):
    """Lint one fixture file and return its findings."""
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    rules = get_rules(codes) if codes else RULES
    return lint_paths([path], tmp_path, rules).findings


def codes_of(findings):
    return [finding.rule for finding in findings]


class TestRegistry:
    def test_thirteen_rules_with_unique_codes(self):
        codes = [rule.code for rule in RULES]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes) == 13

    def test_select_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="REP999"):
            get_rules(["REP999"])


class TestRep001RandomSource:
    def test_flags_numpy_default_rng(self, tmp_path):
        findings = run_lint(tmp_path, """
            import numpy as np
            rng = np.random.default_rng(3)
        """, ["REP001"])
        assert codes_of(findings) == ["REP001"]

    def test_flags_stdlib_random(self, tmp_path):
        findings = run_lint(tmp_path, """
            import random
            x = random.random()
        """, ["REP001"])
        assert codes_of(findings) == ["REP001"]

    def test_flags_from_import_member(self, tmp_path):
        findings = run_lint(tmp_path, """
            from numpy.random import default_rng
            rng = default_rng(0)
        """, ["REP001"])
        assert codes_of(findings) == ["REP001"]

    def test_rng_module_is_exempt(self, tmp_path):
        findings = run_lint(tmp_path, """
            import numpy as np
            g = np.random.default_rng(0)
        """, ["REP001"], filename="repro/sim/rng.py")
        assert findings == []

    def test_randomstreams_usage_is_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.sim.rng import RandomStreams
            rng = RandomStreams(7).get("model.jitter")
            value = rng.normal()
        """, ["REP001"])
        assert findings == []


class TestRep002WallClock:
    def test_flags_time_time(self, tmp_path):
        findings = run_lint(tmp_path, """
            import time
            start = time.time()
        """, ["REP002"])
        assert codes_of(findings) == ["REP002"]

    def test_flags_member_import(self, tmp_path):
        findings = run_lint(tmp_path, """
            from time import perf_counter
            start = perf_counter()
        """, ["REP002"])
        assert codes_of(findings) == ["REP002"]

    def test_flags_datetime_now(self, tmp_path):
        findings = run_lint(tmp_path, """
            from datetime import datetime
            stamp = datetime.now()
        """, ["REP002"])
        assert codes_of(findings) == ["REP002"]

    def test_benchmarks_are_exempt(self, tmp_path):
        findings = run_lint(tmp_path, """
            import time
            start = time.time()
        """, ["REP002"], filename="benchmarks/bench_perf.py")
        assert findings == []

    def test_virtual_time_is_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            def elapsed(sim):
                return sim.now
        """, ["REP002"])
        assert findings == []


class TestRep003MagicScale:
    def test_flags_exponent_notation(self, tmp_path):
        findings = run_lint(tmp_path, "RATE = 1e9\n", ["REP003"])
        assert codes_of(findings) == ["REP003"]
        assert "GIGA" in findings[0].message

    def test_flags_shift_and_power_forms(self, tmp_path):
        findings = run_lint(tmp_path, """
            STRIPE = 1 << 20
            CACHE = 2**30
            BUF = 64 * 1024
        """, ["REP003"])
        assert codes_of(findings) == ["REP003", "REP003", "REP003"]
        messages = " ".join(f.message for f in findings)
        assert "MIB" in messages and "GIB" in messages and "KIB" in messages

    def test_written_out_floats_are_deliberate(self, tmp_path):
        findings = run_lint(tmp_path, """
            THRESHOLD_TFLOPS = 1000.0
            BANDWIDTH = 2.1e9
            PRIME = 1_000_003
        """, ["REP003"])
        assert findings == []

    def test_units_module_is_exempt(self, tmp_path):
        findings = run_lint(tmp_path, "GIGA = 1e9\n", ["REP003"],
                            filename="repro/units.py")
        assert findings == []

    def test_derived_power_of_ten_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "CAP = 10 ** 9\n", ["REP003"])
        assert codes_of(findings) == ["REP003"]
        assert "GIGA" in findings[0].message
        assert "derived scale" in findings[0].message

    def test_derived_product_flagged_once_as_the_whole(self, tmp_path):
        findings = run_lint(tmp_path, """
            BUF = 1024 * 1024
            RATE = 1000 * 1000000
        """, ["REP003"])
        assert codes_of(findings) == ["REP003", "REP003"]
        assert "MIB" in findings[0].message
        assert "GIGA" in findings[1].message

    def test_scale_literal_inside_product_still_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "BITS = 1e6 * 8\n", ["REP003"])
        assert codes_of(findings) == ["REP003"]
        assert "MEGA" in findings[0].message

    def test_coincidental_products_are_not_scales(self, tmp_path):
        findings = run_lint(tmp_path, """
            TILE = 32 * 32
            SECONDS_PER_HOUR = 60 * 60
            DPI = 25 * 40
        """, ["REP003"])
        assert findings == []

    def test_manual_unit_formatting_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.units import MEGA

            def show(bandwidth):
                return f"{bandwidth / MEGA:.0f} MB/s"
        """, ["REP003"])
        assert codes_of(findings) == ["REP003"]
        assert "manual unit formatting" in findings[0].message
        assert "format_" in findings[0].message

    def test_manual_formatting_via_literal_divisor_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            def show(memory):
                return f"{memory / 1000000:.1f} MB"
        """, ["REP003"])
        assert codes_of(findings) == ["REP003"]
        assert "manual unit formatting" in findings[0].message

    def test_format_helpers_and_non_unit_suffixes_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.units import MEGA, format_si

            def show(bandwidth, count):
                a = f"rate: {format_si(bandwidth, 'B/s')}"
                b = f"{count / MEGA:.1f} million rows"
                c = f"{count / 7:.0f} MB"
                return a, b, c
        """, ["REP003"])
        assert findings == []


class TestRep004FloatEquality:
    def test_flags_float_literal_equality(self, tmp_path):
        findings = run_lint(tmp_path, """
            def check(x):
                return x == 1.0 or x != 0.5
        """, ["REP004"])
        assert codes_of(findings) == ["REP004", "REP004"]

    def test_integer_and_ordered_comparisons_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            def check(x):
                return x == 1 or x >= 1.0
        """, ["REP004"])
        assert findings == []


class TestRep005MutableDefault:
    def test_flags_literal_and_constructor_defaults(self, tmp_path):
        findings = run_lint(tmp_path, """
            def f(items=[], table=dict()):
                return items, table
        """, ["REP005"])
        assert codes_of(findings) == ["REP005", "REP005"]

    def test_none_default_is_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            def f(items=None, scale=1.5):
                return items if items is not None else []
        """, ["REP005"])
        assert findings == []


class TestRep006ExportList:
    def test_missing_all_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            def public():
                return 1
        """, ["REP006"])
        assert "no __all__" in findings[0].message

    def test_unlisted_public_def_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            __all__ = ["listed"]

            def listed():
                return 1

            def unlisted():
                return 2
        """, ["REP006"])
        assert codes_of(findings) == ["REP006"]
        assert "unlisted" in findings[0].message

    def test_ghost_entry_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            __all__ = ["ghost"]
        """, ["REP006"])
        assert "ghost" in findings[0].message

    def test_clean_module_passes(self, tmp_path):
        findings = run_lint(tmp_path, """
            from collections import OrderedDict

            __all__ = ["CONSTANT", "OrderedDict", "helper"]

            CONSTANT = 7

            def helper():
                return CONSTANT

            def _private():
                return 0
        """, ["REP006"])
        assert findings == []

    def test_duplicates_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            __all__ = ["f", "f"]

            def f():
                return 1
        """, ["REP006"])
        assert any("duplicate" in f.message for f in findings)


class TestRep007CrossLayer:
    def test_upward_import_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.scheduler import BatchSimulator
        """, ["REP007"], filename="repro/tech/roadmap.py")
        assert codes_of(findings) == ["REP007"]
        assert "layer" in findings[0].message

    def test_same_layer_import_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.tech import get_scenario
        """, ["REP007"], filename="repro/sim/engine.py")
        assert codes_of(findings) == ["REP007"]

    def test_root_import_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro import RandomStreams
        """, ["REP007"], filename="repro/apps/kernel.py")
        assert "package root" in findings[0].message

    def test_downward_import_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.units import GIGA
            from repro.sim.engine import Simulator
            from repro.network.fabric import Fabric
        """, ["REP007"], filename="repro/messaging/comm.py")
        assert findings == []

    def test_relative_import_resolved(self, tmp_path):
        findings = run_lint(tmp_path, """
            from ..scheduler import policies
        """, ["REP007"], filename="repro/tech/curves.py")
        assert codes_of(findings) == ["REP007"]

    def test_relative_import_in_package_init_resolved(self, tmp_path):
        """`from ..apps import x` inside repro/sim/__init__.py climbs from
        repro.sim (the package itself), not from repro — the buggy parent
        anchoring resolved it to the non-repro module 'apps' and let the
        upward import through silently."""
        findings = run_lint(tmp_path, """
            from ..apps import kernel
        """, ["REP007"], filename="repro/sim/__init__.py")
        assert codes_of(findings) == ["REP007"]
        assert "apps" in findings[0].message

    def test_sibling_relative_import_in_package_init_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            from . import engine
            from .engine import Simulator
        """, ["REP007"], filename="repro/sim/__init__.py")
        assert findings == []

    def test_package_root_relative_import_in_init_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            from .. import units
        """, ["REP007"], filename="repro/scheduler/__init__.py")
        assert codes_of(findings) == ["REP007"]
        assert "package root" in findings[0].message

    def test_obs_sits_below_the_engine(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.sim.engine import Simulator
        """, ["REP007"], filename="repro/obs/spans.py")
        assert codes_of(findings) == ["REP007"]
        assert run_lint(tmp_path, """
            from repro.obs import Observability
        """, ["REP007"], filename="repro/sim/engine.py") == []


class TestRep008SeededConstructor:
    def test_public_seeded_function_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            import numpy as np

            def run_model(seed):
                rng = np.random.default_rng(seed)
                return rng.normal()
        """, ["REP008"])
        assert codes_of(findings) == ["REP008"]
        assert "run_model" in findings[0].message

    def test_randomstreams_derivation_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.sim.rng import RandomStreams

            def run_model(seed, streams=None):
                streams = streams if streams is not None else RandomStreams(seed)
                return streams.get("model").normal()
        """, ["REP008"])
        assert findings == []

    def test_private_helper_not_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            import numpy as np

            def _internal(seed):
                return np.random.default_rng(seed)
        """, ["REP008"])
        assert findings == []


class TestRep009Docstrings:
    def test_missing_module_docstring_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            X = 1
        """, ["REP009"])
        assert codes_of(findings) == ["REP009"]
        assert "module" in findings[0].message

    def test_undocumented_public_surface_flagged(self, tmp_path):
        findings = run_lint(tmp_path, '''
            """Module docstring."""

            def helper():
                return 1

            class Widget:
                """A documented class."""

                def spin(self):
                    return 2
        ''', ["REP009"])
        assert codes_of(findings) == ["REP009", "REP009"]
        assert "helper" in findings[0].message
        assert "Widget.spin" in findings[1].message

    def test_private_names_and_private_class_methods_exempt(self, tmp_path):
        findings = run_lint(tmp_path, '''
            """Module docstring."""

            def _helper():
                return 1

            class _Visitor:
                def visit_Call(self, node):
                    return node
        ''', ["REP009"])
        assert findings == []

    def test_documented_module_clean(self, tmp_path):
        findings = run_lint(tmp_path, '''
            """Module docstring."""

            def helper():
                """Does a thing."""
                return 1

            class Widget:
                """A documented class."""

                def spin(self):
                    """Spins."""
                    return 2
        ''', ["REP009"])
        assert findings == []

    def test_tests_and_benchmarks_exempt(self, tmp_path):
        source = """
            def test_something():
                assert True
        """
        assert run_lint(tmp_path, source, ["REP009"],
                        filename="tests/test_x.py") == []
        assert run_lint(tmp_path, source, ["REP009"],
                        filename="benchmarks/bench_x.py") == []


class TestRep010BroadExcept:
    def test_bare_except_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            def f():
                try:
                    return 1
                except:
                    return 0
        """, ["REP010"])
        assert codes_of(findings) == ["REP010"]
        assert "bare" in findings[0].message

    def test_except_exception_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            def f():
                try:
                    return 1
                except Exception:
                    return 0
        """, ["REP010"])
        assert codes_of(findings) == ["REP010"]

    def test_base_exception_in_tuple_flagged(self, tmp_path):
        findings = run_lint(tmp_path, """
            def f():
                try:
                    return 1
                except (ValueError, BaseException) as exc:
                    return exc
        """, ["REP010"])
        assert codes_of(findings) == ["REP010"]
        assert "BaseException" in findings[0].message

    def test_specific_handlers_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            def f():
                try:
                    return 1
                except (ValueError, KeyError):
                    return 0
        """, ["REP010"])
        assert findings == []

    def test_tests_and_benchmarks_exempt(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except Exception:
                    return 0
        """
        assert run_lint(tmp_path, source, ["REP010"],
                        filename="tests/test_x.py") == []
        assert run_lint(tmp_path, source, ["REP010"],
                        filename="benchmarks/bench_x.py") == []

    def test_noqa_suppresses(self, tmp_path):
        findings = run_lint(tmp_path, """
            def f():
                try:
                    return 1
                except BaseException:  # repro: noqa[REP010] boundary
                    raise
        """, ["REP010"])
        assert findings == []


class TestSuppression:
    def test_scoped_noqa_suppresses_named_rule(self, tmp_path):
        findings = run_lint(tmp_path, """
            TAG_BASE = 1 << 20  # repro: noqa[REP003] tag namespace
        """, ["REP003"])
        assert findings == []

    def test_scoped_noqa_leaves_other_rules(self, tmp_path):
        findings = run_lint(tmp_path, """
            RATE = 1e9  # repro: noqa[REP004]
        """, ["REP003"])
        assert codes_of(findings) == ["REP003"]

    def test_bare_noqa_suppresses_everything(self, tmp_path):
        findings = run_lint(tmp_path, """
            RATE = 1e9  # repro: noqa
        """, ["REP003"])
        assert findings == []

    def test_noqa_only_covers_its_line(self, tmp_path):
        findings = run_lint(tmp_path, """
            A = 1e9  # repro: noqa[REP003]
            B = 1e9
        """, ["REP003"])
        assert len(findings) == 1
        assert findings[0].line == 3


class TestBaseline:
    def test_round_trip_hides_grandfathered_findings(self, tmp_path):
        path = tmp_path / "repro" / "legacy.py"
        path.parent.mkdir(parents=True)
        path.write_text("RATE = 1e9\n")
        rules = get_rules(["REP003"])

        raw = lint_paths([path], tmp_path, rules)
        assert len(raw.findings) == 1

        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, raw.findings)
        keys = load_baseline(baseline_path)
        assert len(keys) == 1

        clean = lint_paths([path], tmp_path, rules, baseline=keys)
        assert clean.findings == []
        assert clean.baselined == 1
        assert clean.exit_code == 0

    def test_new_findings_still_fail_after_baseline(self, tmp_path):
        path = tmp_path / "repro" / "legacy.py"
        path.parent.mkdir(parents=True)
        path.write_text("RATE = 1e9\n")
        rules = get_rules(["REP003"])
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, lint_paths([path], tmp_path,
                                                 rules).findings)

        path.write_text("RATE = 1e9\nCAP = 1 << 30\n")
        result = lint_paths([path], tmp_path, rules,
                            baseline=load_baseline(baseline_path))
        assert len(result.findings) == 1
        assert "GIB" in result.findings[0].message
        assert result.exit_code == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()


class TestImportMapRelativeResolution:
    """Regression: relative imports anchor at the *containing package* —
    which for an ``__init__.py`` is the module's own dotted name."""

    @staticmethod
    def module_for(tmp_path, filename, source):
        import ast as ast_module
        from repro.lint.engine import ModuleInfo

        text = textwrap.dedent(source)
        return ModuleInfo(tmp_path / filename, filename, text,
                          ast_module.parse(text))

    def test_init_single_dot_resolves_into_own_package(self, tmp_path):
        module = self.module_for(tmp_path, "repro/lint/__init__.py",
                                 "from . import engine\n")
        assert module.is_package
        assert module.import_package == "repro.lint"
        assert module.imports.members["engine"] == "repro.lint.engine"

    def test_init_double_dot_resolves_to_parent(self, tmp_path):
        module = self.module_for(tmp_path, "repro/lint/__init__.py",
                                 "from .. import units\n"
                                 "from ..sim import rng\n")
        assert module.imports.members["units"] == "repro.units"
        assert module.imports.members["rng"] == "repro.sim.rng"

    def test_plain_module_single_dot_resolves_to_sibling(self, tmp_path):
        module = self.module_for(tmp_path, "repro/lint/cli.py",
                                 "from . import engine\n")
        assert not module.is_package
        assert module.import_package == "repro.lint"
        assert module.imports.members["engine"] == "repro.lint.engine"

    def test_plain_module_double_dot_resolves_to_uncle(self, tmp_path):
        module = self.module_for(tmp_path, "repro/lint/cli.py",
                                 "from ..sim import rng\n")
        assert module.imports.members["rng"] == "repro.sim.rng"

    def test_top_level_init_resolves_own_members(self, tmp_path):
        module = self.module_for(tmp_path, "repro/__init__.py",
                                 "from . import units\n")
        assert module.import_package == "repro"
        assert module.imports.members["units"] == "repro.units"


class TestFindingModel:
    def test_key_is_line_number_independent(self):
        a = Finding("repro/x.py", 10, 1, "REP003", "magic scale literal")
        b = Finding("repro/x.py", 99, 7, "REP003", "magic scale literal")
        assert a.key() == b.key()

    def test_render_and_dict_forms(self):
        finding = Finding("repro/x.py", 3, 5, "REP001", "bad call")
        assert "repro/x.py:3:5" in finding.render()
        assert finding.as_dict()["rule"] == "REP001"

    def test_syntax_error_reported_as_rep000(self, tmp_path):
        path = tmp_path / "repro" / "broken.py"
        path.parent.mkdir(parents=True)
        path.write_text("def broken(:\n")
        result = lint_paths([path], tmp_path, RULES)
        assert codes_of(result.findings) == ["REP000"]


class TestCli:
    def test_text_output_and_exit_code(self, tmp_path, capsys):
        path = tmp_path / "repro" / "bad.py"
        path.parent.mkdir(parents=True)
        path.write_text("__all__ = []\nRATE = 1e9\n")
        code = lint_main(["--root", str(tmp_path), "--select", "REP003",
                          str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP003" in out and "1 error(s)" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "repro" / "bad.py"
        path.parent.mkdir(parents=True)
        path.write_text("RATE = 1e9\n")
        code = lint_main(["--root", str(tmp_path), "--select", "REP003",
                          "--format", "json", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "REP003"

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        path = tmp_path / "repro" / "bad.py"
        path.parent.mkdir(parents=True)
        path.write_text("RATE = 1e9\n")
        args = ["--root", str(tmp_path), "--select", "REP003", str(path)]
        assert lint_main(args + ["--write-baseline"]) == 0
        capsys.readouterr()
        assert lint_main(args) == 0
        assert lint_main(args + ["--no-baseline"]) == 1

    def test_select_tolerates_spaces_and_case(self, tmp_path, capsys):
        """Regression: `--select "REP001, REP007"` used to die with
        `unknown rule codes: [' REP007']` because the CLI filtered on the
        stripped code but passed the raw one through."""
        path = tmp_path / "repro" / "bad.py"
        path.parent.mkdir(parents=True)
        path.write_text("RATE = 1e9\n")
        code = lint_main(["--root", str(tmp_path), "--select",
                          "rep003, REP007", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP003" in out

    def test_select_unknown_code_still_usage_error(self, tmp_path, capsys):
        code = lint_main(["--root", str(tmp_path), "--select",
                          "REP003, REP999", str(tmp_path)])
        assert code == 2
        assert "REP999" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP001", "REP008"):
            assert code in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main(["--root", str(tmp_path),
                          str(tmp_path / "absent.py")]) == 2


def run_tree(tmp_path, files, codes=None):
    """Lint a multi-file fixture tree and return its findings."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    rules = get_rules(codes) if codes else RULES
    return lint_paths([tmp_path], tmp_path, rules).findings


class TestRep011UnorderedIteration:
    def test_flags_set_literal_iteration(self, tmp_path):
        findings = run_lint(tmp_path, """
            def fan_out():
                for node in {"a", "b", "c"}:
                    print(node)
        """, ["REP011"])
        assert codes_of(findings) == ["REP011"]

    def test_flags_set_variable_iteration(self, tmp_path):
        findings = run_lint(tmp_path, """
            def fan_out(items):
                pending = set(items)
                for node in pending:
                    print(node)
        """, ["REP011"])
        assert codes_of(findings) == ["REP011"]

    def test_flags_comprehension_over_set(self, tmp_path):
        findings = run_lint(tmp_path, """
            def collect(items):
                live = frozenset(items)
                return [x * 2 for x in live]
        """, ["REP011"])
        assert codes_of(findings) == ["REP011"]

    def test_flags_list_of_set_taint(self, tmp_path):
        findings = run_lint(tmp_path, """
            def order(items):
                rough = list(set(items))
                for x in rough:
                    print(x)
        """, ["REP011"])
        assert codes_of(findings) == ["REP011"]

    def test_flags_cross_module_set_global(self, tmp_path):
        findings = run_tree(tmp_path, {
            "repro/registry.py":
                "NODES = {'n0', 'n1'}\n",
            "repro/consumer.py": """
                from repro.registry import NODES

                def sweep():
                    for node in NODES:
                        print(node)
            """,
        }, ["REP011"])
        assert codes_of(findings) == ["REP011"]
        assert "repro.registry" in findings[0].message

    def test_flags_unsorted_listdir(self, tmp_path):
        findings = run_lint(tmp_path, """
            import os

            def load(d):
                return [open(f) for f in os.listdir(d)]
        """, ["REP011"])
        assert codes_of(findings) == ["REP011"]

    def test_flags_path_iterdir(self, tmp_path):
        findings = run_lint(tmp_path, """
            def scan(root):
                for entry in root.iterdir():
                    print(entry)
        """, ["REP011"])
        assert codes_of(findings) == ["REP011"]

    def test_sorted_wrapper_is_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            import os

            def stable(d, items):
                for name in sorted(os.listdir(d)):
                    print(name)
                for x in sorted({1, 2, 3}):
                    print(x)
                return sorted(set(items))
        """, ["REP011"])
        assert findings == []

    def test_membership_and_len_are_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            import os

            def probe(d, wanted):
                live = {"a", "b"}
                count = len(os.listdir(d))
                return wanted in live, count
        """, ["REP011"])
        assert findings == []

    def test_tests_are_exempt(self, tmp_path):
        findings = run_lint(tmp_path, """
            def helper():
                for x in {1, 2}:
                    print(x)
        """, ["REP011"], filename="tests/test_thing.py")
        assert findings == []


class TestRep012RngAliasing:
    def test_flags_module_level_generator(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.sim.rng import RandomStreams

            streams = RandomStreams(7)
            gen = streams.get("model")
        """, ["REP012"])
        assert codes_of(findings) == ["REP012"]
        assert "'gen'" in findings[0].message

    def test_module_global_names_importers(self, tmp_path):
        findings = run_tree(tmp_path, {
            "repro/shared.py": """
                from repro.sim.rng import RandomStreams

                gen = RandomStreams(7).fresh("shared")
            """,
            "repro/user_a.py": "from repro.shared import gen\n",
            "repro/user_b.py": "from repro.shared import gen\n",
        }, ["REP012"])
        assert codes_of(findings) == ["REP012"]
        assert "repro.user_a" in findings[0].message
        assert "repro.user_b" in findings[0].message

    def test_flags_generator_into_two_spawns(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.sim.rng import RandomStreams

            def launch(sim, worker, seed):
                streams = RandomStreams(seed)
                gen = streams.get("workers")
                sim.process(worker(sim, gen))
                sim.process(worker(sim, gen))
        """, ["REP012"])
        assert codes_of(findings) == ["REP012"]
        assert "'gen'" in findings[0].message

    def test_flags_generator_spawned_in_loop(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.sim.rng import RandomStreams

            def launch(sim, worker, seed, ranks):
                streams = RandomStreams(seed)
                gen = streams.get("workers")
                for rank in range(ranks):
                    sim.process(worker(sim, rank, gen))
        """, ["REP012"])
        assert codes_of(findings) == ["REP012"]

    def test_flags_spawn_through_helper(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.sim.rng import RandomStreams

            def start(sim, job, gen):
                return sim.process(job(gen))

            def launch(sim, job, seed):
                streams = RandomStreams(seed)
                gen = streams.get("jobs")
                start(sim, job, gen)
                start(sim, job, gen)
        """, ["REP012"])
        assert codes_of(findings) == ["REP012"]

    def test_stream_per_spawn_is_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.sim.rng import RandomStreams

            def launch(sim, worker, seed, ranks):
                streams = RandomStreams(seed)
                for rank in range(ranks):
                    gen = streams.fresh(f"worker.{rank}")
                    sim.process(worker(sim, rank, gen))
        """, ["REP012"])
        assert findings == []

    def test_single_spawn_is_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            from repro.sim.rng import RandomStreams

            def launch(sim, worker, seed):
                streams = RandomStreams(seed)
                gen = streams.get("solo")
                sim.process(worker(sim, gen))
        """, ["REP012"])
        assert findings == []

    def test_module_level_streams_registry_is_clean(self, tmp_path):
        """A RandomStreams *registry* global is fine; only drawn
        generators alias hidden state."""
        findings = run_lint(tmp_path, """
            from repro.sim.rng import RandomStreams

            def build(seed):
                return RandomStreams(seed)
        """, ["REP012"])
        assert findings == []


class TestRep013IdentityOrdering:
    def test_flags_key_id(self, tmp_path):
        findings = run_lint(tmp_path, """
            def order(jobs):
                return sorted(jobs, key=id)
        """, ["REP013"])
        assert codes_of(findings) == ["REP013"]

    def test_flags_id_inside_sort_key_lambda(self, tmp_path):
        findings = run_lint(tmp_path, """
            def order(jobs):
                jobs.sort(key=lambda j: (j.priority, id(j)))
        """, ["REP013"])
        assert codes_of(findings) == ["REP013"]

    def test_flags_hash_key_in_min(self, tmp_path):
        findings = run_lint(tmp_path, """
            def pick(names):
                return min(names, key=hash)
        """, ["REP013"])
        assert codes_of(findings) == ["REP013"]

    def test_flags_id_in_heap_entry(self, tmp_path):
        findings = run_lint(tmp_path, """
            import heapq

            def enqueue(heap, when, job):
                heapq.heappush(heap, (when, id(job), job))
        """, ["REP013"])
        assert codes_of(findings) == ["REP013"]

    def test_flags_id_dict_key(self, tmp_path):
        findings = run_lint(tmp_path, """
            def index(jobs):
                table = {id(j): j for j in jobs}
                other = {}
                for j in jobs:
                    other[id(j)] = j
                return table, other
        """, ["REP013"])
        # dict-comp key and subscript-assignment key both flagged
        assert codes_of(findings) == ["REP013", "REP013"]

    def test_stable_keys_are_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            import heapq

            def order(jobs, heap, when, seq, job):
                ranked = sorted(jobs, key=lambda j: (j.priority, j.name))
                heapq.heappush(heap, (when, seq, job))
                return ranked
        """, ["REP013"])
        assert findings == []

    def test_plain_id_call_is_clean(self, tmp_path):
        findings = run_lint(tmp_path, """
            def describe(job):
                return f"job at {id(job):#x}"
        """, ["REP013"])
        assert findings == []
