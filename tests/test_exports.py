"""Every name a quadtower module exports in __all__ exists in it."""

import importlib
import pkgutil

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
