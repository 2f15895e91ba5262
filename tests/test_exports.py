"""Every name a quadtower module exports in __all__ exists in it, the
package imports nothing outside the standard library, its modules import
each other along one fixed graph, and every name a module imports is used
in it."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import quadtower

MODULES = sorted(m.name for m in pkgutil.iter_modules(quadtower.__path__))


def test_modules_are_found():
    assert {"arith", "qform", "group2", "classify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"quadtower.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize(
    "path", sorted(Path(quadtower.__path__[0]).glob("*.py")), ids=lambda p: p.name
)
def test_runtime_imports_only_the_standard_library(path):
    # relative imports (level > 0) stay inside the package
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = [m for m in imported if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# Each arithmetic fact has one owner: qform decides N(eps) from the forms, so
# it needs no continued fraction from units, and arith owns factoring.
IMPORT_GRAPH = {
    "__init__": set(),
    "arith": set(),
    "formulas": set(),
    "qform": {"arith"},
    "units": {"arith"},
    "conic": {"arith", "units"},
    "group2": {"qform"},
    "classify": {"arith", "qform", "units"},
    "cli": {"arith", "classify", "conic", "group2", "qform", "units"},
}


def _package_imports(path):
    # `from .x import ...` gives x; `from . import x, y` gives x and y
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:
                out |= {alias.name for alias in node.names}
            else:
                out.add(node.module.split(".")[0])
    return out


def test_package_import_graph_is_pinned():
    paths = sorted(Path(quadtower.__path__[0]).glob("*.py"))
    assert {p.stem: _package_imports(p) for p in paths} == IMPORT_GRAPH


def _unused_imports(source, exported=()):
    """Names bound by module-level imports in source that the module never
    loads, reads an attribute off or exports in __all__; an import kept for
    outside callers carries "# noqa: F401" on its line."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound = [(a.asname or a.name.split(".")[0], a.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(a.asname or a.name, a.lineno) for a in node.names]
        else:
            continue
        for name, line in bound:
            noqa = "# noqa: F401" in lines[line - 1] + lines[node.lineno - 1]
            if name not in used and name not in exported and not noqa:
                unused.append(name)
    return unused


def test_unused_import_check_sees_a_leftover():
    source = "from .units import (\n    QuadUnit,\n    fundamental_unit,\n)\n\nfundamental_unit(5)\n"
    assert _unused_imports(source) == ["QuadUnit"]
    assert _unused_imports("import json  # noqa: F401\nimport re\n") == ["re"]
    assert _unused_imports("from .arith import kronecker\n", ["kronecker"]) == []


@pytest.mark.parametrize(
    "path", sorted(Path(quadtower.__path__[0]).glob("*.py")), ids=lambda p: p.name
)
def test_module_level_imports_are_used(path):
    # the two bench-hook imports in classify carry the noqa mark
    exported = getattr(importlib.import_module(f"quadtower.{path.stem}"), "__all__", [])
    assert _unused_imports(path.read_text(encoding="utf-8"), exported) == []
