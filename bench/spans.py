"""Spans around calls into each quadtower layer, recorded from outside the package.

A traced run replaces public names at the module attributes where their
callers look them up (``cli.classify``, ``classify.class_group``, ...), so
no file under src/ changes.  Every wrapped call appends one span
``(id, parent id, name, start, end)`` to an in-memory list; the list is
aggregated, and optionally written out, when the run ends.  A layer's self
time is its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name); None means the name depends on the call.
HOOKS = (
    ("cli", "classify", "classify.classify"),
    ("cli", "tower_verdict", "classify.tower_verdict"),
    ("cli", "verify_invariant_row", "classify.verify_invariant_row"),
    ("classify", "classify", "classify.classify"),
    ("classify", "factor_discriminant", "arith.factor_discriminant"),
    ("classify", "is_sum_of_two_squares", "arith.is_sum_of_two_squares"),
    ("classify", "class_group", "qform.class_group"),
    ("classify", "two_class_number", "qform.two_class_number"),
    ("classify", "fundamental_unit", "units.fundamental_unit"),
    ("classify", "kubota_index", None),
)

# Layer functions whose call count and busy time are reported.
BUSY = (
    "arith.factor_discriminant",
    "arith.is_sum_of_two_squares",
    "qform.class_group",
    "qform.two_class_number",
    "units.fundamental_unit",
    "units.kubota_index.quartic",
    "units.kubota_index.octic",
)

# Spans whose self time (duration minus all child spans) is reported.
SELF = {
    "classify.classify": "classify.classify.self_s",
    "classify.verify_invariant_row": "classify.verify_invariant_row.self_s",
    "cli.main": "cli.self_s",
}


def _kubota_name(args, kwargs) -> str:
    octic = len(args) > 2 and args[2] is not None or kwargs.get("m3") is not None
    return "units.kubota_index." + ("octic" if octic else "quartic")


class Tracer:
    """Records spans while installed; ``call`` opens a span for the caller."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.failed_classify: list[tuple[int, str]] = []
        self.records = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name: str | None, fn):
        def traced(*args, **kwargs):
            span = name or _kubota_name(args, kwargs)
            if span != "classify.classify":
                return self.call(span, fn, *args, **kwargs)
            try:
                rec = self.call(span, fn, *args, **kwargs)
            except Exception as exc:
                self.failed_classify.append((args[0], type(exc).__name__))
                raise
            self.records += 1
            return rec

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        for module, attr, name in HOOKS:
            owner = modules[module]
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Call counts, busy seconds and self seconds per layer."""
        child = defaultdict(float)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter[str] = Counter()
        busy: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[sid]
        out: dict[str, float] = {}
        for name in BUSY:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
        for name, metric in SELF.items():
            out[metric] = own[name]
        out["classify.classify.calls"] = calls["classify.classify"]
        out["classify.verify_invariant_row.calls"] = calls[
            "classify.verify_invariant_row"
        ]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(
                    json.dumps({"id": sid, "parent": parent, "name": name,
                                "start": start, "end": end}) + "\n"
                )
