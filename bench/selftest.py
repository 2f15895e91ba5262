"""Smoke test of the benchmark itself, kept out of the tier-1 suite.

    python3 bench/selftest.py        # about a minute

1. The committed row-field corpus matches a fresh [5, 60000) sweep.
2. run.py --quick runs every workload, untraced and traced, and reports
   every metric BENCHMARK.json names, correct, with no failed operation;
   the traced rejection counts repeat exactly for one seed.
3. A scan whose record stream differs from its digest is reported as failed.
4. --compare flags a metric that moved beyond its bound and one whose
   spread is too wide to tell.
5. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=root,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        raise SystemExit(1)


def copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def main() -> int:
    proc = subprocess.run([sys.executable, str(BENCH / "reference.py"), "check"],
                          capture_output=True, text=True, timeout=300)
    check(proc.returncode == 0, f"row corpus: {proc.stdout.strip()}")

    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        tmp = Path(tmp)
        counts = []
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer"), ("1", "per_layer")):
            for name in (w["name"] for w in SPEC["workloads"]):
                proc = bench("--workload", name, "--seed", "7", "--trace", trace,
                             "--quick", "--results", str(tmp / "quick"))
                out = result(proc)
                names = {m["name"] for m in SPEC[kind]}
                check(proc.returncode == 0 and out["correct"] and out["failed"] == 0
                      and set(out["metrics"]) == names,
                      f"{name} --trace {trace} --quick reports every {kind} metric")
                if trace == "1":
                    counts.append({k: v["value"] for k, v in out["metrics"].items()
                                   if k.startswith("classify.re")})
        half = len(counts) // 2
        check(counts[:half] == counts[half:], "traced rejection counts repeat")

        broken = tmp / "broken"
        broken.mkdir()
        copy_checkout(broken, with_src=True)
        digests = broken / "bench" / "data" / "scan_digests.json"
        data = json.loads(digests.read_text())
        for block in data["scan-dense"]:
            block["sha256"] = "0" * 64
        digests.write_text(json.dumps(data))
        proc = bench("--workload", "scan-dense", "--quick", root=broken)
        out = result(proc)
        check(proc.returncode != 0 and not out["correct"] and out["failed"] == 2,
              "a scan that differs from its digest fails")

        sets = {"a": [100.0, 101.0, 99.0, 100.5], "b": [130.0, 131.0, 129.0, 130.5],
                "c": [70.0, 140.0, 100.0, 60.0]}
        for side, values in sets.items():
            (tmp / side).mkdir()
            for i, v in enumerate(values):
                record = {"workload": "verify-rows", "quick": False, "metrics": {
                    "op_ms_p50": {"value": v, "unit": "ms"}}}
                (tmp / side / f"{i}.json").write_text(json.dumps(record))
        worse = bench("--compare", str(tmp / "a"), str(tmp / "b"))
        unresolved = bench("--compare", str(tmp / "a"), str(tmp / "c"))
        check(worse.returncode == 1 and "WORSE" in worse.stdout
              and "unresolved" in unresolved.stdout, "compare flags WORSE and unresolved")

        bare = tmp / "bare"
        bare.mkdir()
        copy_checkout(bare, with_src=False)
        proc = bench("--workload", "scan-dense", "--seed", "1", "--seconds", "1",
                      root=bare)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without src/ the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
