"""Regenerate or check the benchmark's reference data under bench/data/.

    python3 bench/reference.py digests   # rewrite data/scan_digests.json
    python3 bench/reference.py rows      # rewrite data/row_fields.json (~80 s)
    python3 bench/reference.py check     # recompute the row-field list, compare

The digests are sha256 sums of the record stream of `quadtower scan LO HI`
for every block of each scan grid; the benchmark compares each scan it
runs against them.  The row fields are the fields below 60000 whose case
has encoded invariant rows, with the verify time measured when the file
was written (`ref_ms`), which only orders the fields into strata.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from worker import DATA, import_quadtower

# Block k scans [first + k*step, first + k*step + width - 1].
GRIDS = {
    # small d, [5, 96004]: 96 blocks tile the range
    "scan-dense": {"first": 5, "width": 1000, "step": 1000, "count": 96},
    # [2e6, 3e6): 128 blocks of 250 spaced 7800 apart
    "scan-deep": {"first": 2_000_000, "width": 250, "step": 7800, "count": 128},
}
ROW_LIMIT = 60000


def scan_block(cli, lo: int, hi: int) -> bytes:
    with tempfile.TemporaryDirectory(dir=DATA.parent) as tmp:
        out = Path(tmp) / "records.jsonl"
        argv = ["scan", str(lo), str(hi), "--output", str(out), "--jobs", "1"]
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"error: {' '.join(argv)} exited {code}")
        return out.read_bytes()


def digests(mods: dict) -> dict:
    out = {}
    for name, g in GRIDS.items():
        blocks = []
        for k in range(g["count"]):
            lo = g["first"] + k * g["step"]
            hi = lo + g["width"] - 1
            data = scan_block(mods["cli"], lo, hi)
            blocks.append({"lo": lo, "hi": hi, "records": data.count(b"\n"),
                           "sha256": hashlib.sha256(data).hexdigest()})
        out[name] = blocks
    return out


def row_fields(mods: dict) -> list[tuple[int, str]]:
    """(d, label) for every field below ROW_LIMIT whose case has row patterns."""
    classify = mods["classify"]
    labelled = classify.load_tables()["invariant_rows"]
    return [(rec.d, rec.label) for rec in classify.iter_family(5, ROW_LIMIT)
            if rec.label in labelled]


def timed_rows(mods: dict) -> list[dict]:
    verify = mods["classify"].verify_invariant_row
    fields = []
    for d, label in row_fields(mods):
        start = time.perf_counter()
        report = verify(d)
        ms = round((time.perf_counter() - start) * 1000.0)
        if not report.matched:
            raise SystemExit(f"error: row verification of {d} does not match")
        fields.append({"d": d, "label": label, "ref_ms": ms})
    return fields


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[1] not in ("digests", "rows", "check"):
        print(__doc__, file=sys.stderr)
        return 2
    mods = import_quadtower()
    if argv[1] == "digests":
        write_json(DATA / "scan_digests.json", digests(mods))
    elif argv[1] == "rows":
        write_json(DATA / "row_fields.json", {"limit": ROW_LIMIT,
                                              "fields": timed_rows(mods)})
    else:
        stored = json.loads((DATA / "row_fields.json").read_text())["fields"]
        want = [(f["d"], f["label"]) for f in stored]
        got = row_fields(mods)
        if got != want:
            print(f"row fields differ: {len(got)} computed, {len(want)} stored; "
                  f"first difference {sorted(set(got) ^ set(want))[:5]}")
            return 1
        print(f"row fields match: {len(got)} fields below {ROW_LIMIT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
