"""Import layering: the package needs only numpy, the oracles stay
independent, and the package exports nothing without a caller.

* No module of the package imports a test or benchmark dependency.
* Every name a module of the package imports is read in that module or
  listed in its ``__all__``; ``from __future__`` imports are exempt.
* ``tests/oracles.py`` builds its brute-force references on its own
  ``encode`` and the package's result types alone, never on the kernels
  it checks.
* ``tests/oracles_float.py`` imports no function of ``ldgm_bounds.bounds``
  or ``ldgm_bounds.exact``, only their exception and result types.
* ``tests/oracles_mp.py`` imports nothing from the package at all.
* Every name in an ``__all__`` of the package is reached from the
  benchmark (``perfbench/*.py``, where ``tracing.py`` names what it wraps
  in strings) or from the package's own top-level code, through the
  definitions that code uses; a test-only name belongs in ``tests/``.
* Every function the benchmark's tracer (``perfbench/tracing.py``) wraps
  by name is defined in the module it names, so a rename fails here
  rather than only in a traced run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "ldgm_bounds"
BENCHMARK = TESTS.parent / "perfbench"

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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_what_it_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and _defined(node) == ["__all__"]:
            exported.update(ast.literal_eval(node.value))
    assert imported <= read | exported, sorted(imported - read - exported)


def test_oracles_use_only_encode_and_result_types():
    names = set()
    for module, imported in _imports(TESTS / "oracles.py"):
        if _top(module) == "ldgm_bounds":
            assert module == "ldgm_bounds", module
            names.update(imported)
    assert names <= ORACLE_NAMES, names - ORACLE_NAMES


def test_float_oracles_import_no_bound_or_exact_function():
    for module, imported in _imports(TESTS / "oracles_float.py"):
        if _top(module) == "ldgm_bounds":
            assert imported, f"import {module}: import names, not the module"
            home = importlib.import_module(module)
            for name in imported:
                value = getattr(home, name)
                if not isinstance(value, type):
                    source = getattr(value, "__module__", getattr(value, "__name__", None))
                    assert source not in ("ldgm_bounds.bounds", "ldgm_bounds.exact"), name


def test_mpmath_oracles_import_nothing_from_the_package():
    modules = [module for module, _ in _imports(TESTS / "oracles_mp.py")]
    assert not [m for m in modules if _top(m) == "ldgm_bounds"]


def _loads(node, strings: bool = False) -> set[str]:
    """Identifiers and attribute names under ``node``; with ``strings``, also
    each string constant and its last dotted part."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update((sub.value, sub.value.rpartition(".")[2]))
    return found


def _defined(node) -> list[str]:
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_every_exported_name_is_reached():
    exported, uses, reached = set(), {}, set()
    for path in BENCHMARK.glob("*.py"):
        reached |= _loads(ast.parse(path.read_text()), strings=True)
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            names = _defined(node)
            if "__all__" in names:
                exported.update(ast.literal_eval(node.value))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            elif names:
                for name in names:
                    uses.setdefault(name, set()).update(_loads(node))
            else:
                reached |= _loads(node)
    frontier = set(reached)
    while frontier:
        frontier = set().union(*(uses.get(name, set()) for name in frontier)) - reached
        reached |= frontier
    assert not exported - reached, sorted(exported - reached)


def _tracer_targets() -> tuple[dict, set[str]]:
    """``perfbench/tracing.py``'s tables SPANNED, FOLDED and TRANSFORMS, read
    from its source, and each method name it reads as ``cls.__dict__[name]``."""
    tree = ast.parse((BENCHMARK / "tracing.py").read_text())
    tables = {
        names[0]: ast.literal_eval(node.value)
        for node in tree.body
        if (names := _defined(node)) and names[0] in ("SPANNED", "FOLDED", "TRANSFORMS")
    }
    methods = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "__dict__"
        and isinstance(node.slice, ast.Constant)
    }
    return tables, methods


def test_every_function_the_tracer_wraps_exists():
    tables, methods = _tracer_targets()
    assert sorted(tables) == ["FOLDED", "SPANNED", "TRANSFORMS"]
    for module, name in tables["SPANNED"] + tables["FOLDED"]:
        home = f"ldgm_bounds.{module}"
        function = getattr(importlib.import_module(home), name, None)
        assert getattr(function, "__module__", None) == home, f"{module}.{name}"
    assert "poisson_truncated" in methods
    degree_type = importlib.import_module("ldgm_bounds.degree").DegreeDistribution
    for name in (*tables["TRANSFORMS"], *methods):
        assert name in vars(degree_type), f"DegreeDistribution.{name}"
