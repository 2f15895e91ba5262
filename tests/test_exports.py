"""Every name a quadtower module exports in __all__ exists in it, the
package imports nothing outside the standard library, and its modules
import each other along one fixed graph."""

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
    "classify": {"arith", "conic", "qform", "units"},
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
