"""The benchmark's trace hooks name attributes that exist in the package,
and a traced scan accounts for every candidate."""

import contextlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

import pytest

from quadtower import classify, cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_hook_resolves():
    spans = _load_spans()
    modules = {"cli": cli, "classify": classify}
    assert spans.HOOKS
    for module, attr, _ in spans.HOOKS:
        assert callable(getattr(modules[module], attr, None)), (module, attr)


@pytest.mark.parametrize(
    "lo, hi, checkpoint",
    [(2000000, 2000249, False), (5, 1004, True)],  # as scan-deep and scan-dense
)
def test_traced_scan_accounts_for_every_candidate(tmp_path, lo, hi, checkpoint):
    # the benchmark's traced run fails unless rejections plus records add up
    # to the candidates, and reads one factoring span per classify span
    spans = _load_spans()
    modules = {"cli": cli, "classify": classify}
    originals = {(m, attr): getattr(modules[m], attr) for m, attr, _ in spans.HOOKS}
    argv = ["scan", str(lo), str(hi), "--output", str(tmp_path / "out.jsonl"),
            "--jobs", "1"]
    if checkpoint:
        argv += ["--checkpoint", str(tmp_path / "scan.ckpt")]
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            assert tracer.call("cli.main", cli.main, argv) == 0
    finally:
        tracer.remove()
    for (m, attr), original in originals.items():
        assert getattr(modules[m], attr) is original, (m, attr)
    candidates = sum(1 for d in range(lo, hi + 1) if d % 4 in (0, 1))
    assert len(tracer.failed_classify) + tracer.records == candidates
    assert tracer.records == len((tmp_path / "out.jsonl").read_text().splitlines())
    counts = Counter(name for _, _, name, _, _ in tracer.spans)
    assert counts["arith.factor_discriminant"] == counts["classify.classify"] == candidates


def test_traced_row_verification_sees_every_layer_call():
    # the verify-rows per-layer figures read these spans: one row field
    # computes the 2-class number and the fundamental unit of each of its
    # seven quadratic subfields once, and three quartic and one octic unit
    # index, all through the names the hooks replace
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install({"cli": cli, "classify": classify})
    try:
        assert classify.verify_invariant_row(19176).matched
    finally:
        tracer.remove()
    counts = Counter(name for _, _, name, _, _ in tracer.spans)
    layers = ("qform.two_class_number", "units.fundamental_unit",
              "units.kubota_index.quartic", "units.kubota_index.octic")
    assert [counts[name] for name in layers] == [7, 7, 3, 1]
