"""Every name a quadtower module exports in __all__ exists in it, and the
package imports nothing outside the standard library."""

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
