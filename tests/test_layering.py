"""Import layering: the package needs only numpy, and the oracles stay independent.

* No module of the package imports a test or benchmark dependency.
* ``tests/oracles.py`` builds its brute-force references on its own
  ``encode`` and the package's result types alone, never on the kernels
  it checks.
* ``tests/oracles_mp.py`` imports nothing from the package at all.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "ldgm_bounds"

FORBIDDEN_IN_PACKAGE = {"mpmath", "scipy", "hypothesis", "pytest", "perfbench"}
ORACLE_NAMES = {"CoverProfile", "LdgmCode", "WeightEnumerator"}


def _imports(path: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(module, imported names) per import statement; relative imports keep their dots."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found.append((module, tuple(alias.name for alias in node.names)))
    return found


def _top(module: str) -> str:
    return module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_no_test_or_benchmark_dependency(path):
    tops = {_top(module) for module, _ in _imports(path)}
    assert not tops & FORBIDDEN_IN_PACKAGE


def test_oracles_use_only_encode_and_result_types():
    names = set()
    for module, imported in _imports(TESTS / "oracles.py"):
        if _top(module) == "ldgm_bounds":
            assert module == "ldgm_bounds", module
            names.update(imported)
    assert names <= ORACLE_NAMES, names - ORACLE_NAMES


def test_mpmath_oracles_import_nothing_from_the_package():
    modules = [module for module, _ in _imports(TESTS / "oracles_mp.py")]
    assert not [m for m in modules if _top(m) == "ldgm_bounds"]
