"""API hygiene: exports resolve and the layering rules DESIGN.md
promises actually hold.

Docstring coverage used to be checked here by reflection (import every
module, inspect every ``__all__`` entry); that pass was slower and saw
only re-exported names.  It is now lint rule REP009, which walks the
AST of every file.
"""

import importlib
import inspect
import pkgutil

import pytest

PACKAGES = [
    "repro",
    "repro.obs",
    "repro.sim",
    "repro.tech",
    "repro.nodes",
    "repro.network",
    "repro.messaging",
    "repro.cluster",
    "repro.scheduler",
    "repro.health",
    "repro.fault",
    "repro.apps",
    "repro.io",
    "repro.analysis",
]


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        for name in package.__all__:
            assert hasattr(package, name), (
                f"{package_name}.__all__ lists {name!r} but it is missing"
            )

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted_unique(self, package_name):
        package = importlib.import_module(package_name)
        exported = list(package.__all__)
        assert len(exported) == len(set(exported)), (
            f"{package_name}.__all__ has duplicates"
        )


class TestLayering:
    """DESIGN.md: no module imports a higher layer."""

    FORBIDDEN = {
        "repro.obs": ["repro.sim", "repro.tech", "repro.nodes",
                      "repro.network", "repro.messaging", "repro.cluster",
                      "repro.scheduler", "repro.fault", "repro.apps",
                      "repro.io", "repro.analysis"],
        "repro.sim": ["repro.tech", "repro.nodes", "repro.network",
                      "repro.messaging", "repro.cluster", "repro.scheduler",
                      "repro.fault", "repro.apps", "repro.io",
                      "repro.analysis"],
        "repro.tech": ["repro.nodes", "repro.network", "repro.messaging",
                       "repro.cluster", "repro.apps"],
        "repro.nodes": ["repro.network", "repro.messaging", "repro.cluster",
                        "repro.apps"],
        "repro.network": ["repro.messaging", "repro.cluster", "repro.apps"],
        "repro.messaging": ["repro.cluster", "repro.scheduler", "repro.apps"],
        "repro.health": ["repro.messaging", "repro.cluster", "repro.fault",
                         "repro.io", "repro.apps"],
        "repro.analysis": ["repro.sim", "repro.network", "repro.messaging",
                           "repro.cluster", "repro.scheduler", "repro.apps"],
    }

    @pytest.mark.parametrize("package_name", sorted(FORBIDDEN))
    def test_no_upward_imports(self, package_name):
        package = importlib.import_module(package_name)
        forbidden = self.FORBIDDEN[package_name]
        # Inspect the source of each submodule for forbidden imports
        # (runtime sys.modules checks would be confounded by other
        # packages importing both).
        offenders = []
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package_name}.{info.name}")
            try:
                source = inspect.getsource(module)
            except OSError:  # pragma: no cover
                continue
            for target in forbidden:
                if (f"from {target}" in source
                        or f"import {target}" in source):
                    offenders.append((module.__name__, target))
        assert not offenders, f"upward imports: {offenders}"
