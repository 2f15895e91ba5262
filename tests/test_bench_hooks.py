"""The benchmark's trace hooks name attributes that exist in the package."""

import importlib.util
from pathlib import Path

from quadtower import classify, cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_trace_hook_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"cli": cli, "classify": classify}
    assert spans.HOOKS
    for module, attr, _ in spans.HOOKS:
        assert callable(getattr(modules[module], attr, None)), (module, attr)
