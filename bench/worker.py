"""Run one benchmark workload in this (fresh) process and print its figures.

Usage: python3 bench/worker.py SPEC_JSON

SPEC_JSON holds workload, seed, seconds, trace, quick and spans (a path for
the span dump, or null).  The last line of stdout is one JSON object with
the operation counts, the failures and the metrics; run.py adds set-up time
and prints the result.  Every workload is a closed loop: one caller issues
the next operation only after the previous one returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"

# Scan workloads: the blocks (with reference digests) live in
# data/scan_digests.json, written by reference.py.  Each round draws one
# block from every stratum of `group` consecutive blocks, so a run covers
# the whole range whatever the seed.
SCANS = {
    "scan-dense": {"group": 4, "checkpoint": True},
    "scan-deep": {"group": 8, "checkpoint": False},
}
# verify-rows draws one field from every stratum of about this many fields,
# strata taken in order of the reference verify time
ROW_GROUP = 5
WORKLOADS = (*SCANS, "verify-rows")
# The probes' times on the measuring machine when nothing else loads it.
PROBE_REF_S = 0.0027
IO_PROBE_REF_S = 0.0015
REJECT_REASONS = ("not_fundamental", "factor_count", "sum_of_two_squares",
                  "cl2", "no_row")


def import_quadtower() -> dict:
    """The quadtower modules, imported from this checkout's src/ only."""
    if not (SRC / "quadtower" / "__init__.py").is_file():
        raise SystemExit(f"error: no quadtower sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from quadtower import arith, classify, cli

    if Path(cli.__file__).resolve().parent != SRC / "quadtower":
        raise SystemExit(f"error: quadtower imported from {cli.__file__}")
    return {"arith": arith, "classify": classify, "cli": cli}


def candidates(lo: int, hi: int) -> int:
    """Discriminant candidates d = 0, 1 mod 4 in [lo, hi]."""
    return sum(1 for d in range(lo, hi + 1) if d % 4 in (0, 1))


def strata(items: list, group: int) -> list[list]:
    k = max(1, len(items) // group)
    return [items[len(items) * i // k: len(items) * (i + 1) // k] for i in range(k)]


def rounds(items: list, group: int, rng: random.Random):
    """Endless rounds, each one item per stratum in shuffled order."""
    parts = strata(items, group)
    while True:
        picks = [rng.choice(part) for part in parts]
        rng.shuffle(picks)
        yield picks


def reject_reason(arith, d: int, exc_name: str) -> str:
    """The first precondition d fails, recomputed outside the traced spans."""
    if exc_name == "NoRowMatchError":
        return "no_row"
    if not arith.is_fundamental_discriminant(d):
        return "not_fundamental"
    if len(arith.factor_discriminant(d)) != 4:
        return "factor_count"
    if arith.is_sum_of_two_squares(d):
        return "sum_of_two_squares"
    return "cl2"


def write_bytes() -> int:
    """Bytes this process has passed to write(2), or -1 where unknown."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def timed(fn, *args):
    """(result, wall seconds, CPU seconds of this process) of fn(*args)."""
    cpu = time.process_time()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start, time.process_time() - cpu


class ScanWorkload:
    """`quadtower scan` over seed-chosen grid blocks, one block per call."""

    def __init__(self, name: str, mods: dict, work: Path):
        self.cli = mods["cli"]
        self.checkpoint = SCANS[name]["checkpoint"]
        self.group = SCANS[name]["group"]
        self.items = json.loads((DATA / "scan_digests.json").read_text())[name]
        self.work = work
        self.out = work / "records.jsonl"
        self.ckpt_dir = work / "ckpt"
        self.ckpt_writes = 0
        self.ckpt_bytes = 0
        self.output_bytes = 0

    def size(self, block) -> int:
        return candidates(block["lo"], block["hi"])

    def run(self, block, tracer=None) -> tuple[float, float, str | None]:
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)
        self.ckpt_dir.mkdir()
        self.out.unlink(missing_ok=True)
        argv = ["scan", str(block["lo"]), str(block["hi"]),
                "--output", str(self.out), "--jobs", "1"]
        if self.checkpoint:
            argv += ["--checkpoint", str(self.ckpt_dir / "scan.ckpt")]
        wrote = write_bytes()
        with contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code, elapsed, cpu = timed(self.cli.main, argv)
            else:
                code, elapsed, cpu = timed(tracer.call, "cli.main", self.cli.main, argv)
        wrote = write_bytes() - wrote if wrote >= 0 else 0
        if code != 0:
            return elapsed, cpu, f"scan {block['lo']} {block['hi']}: exit code {code}"
        data = self.out.read_bytes()
        if tracer is not None:
            self.output_bytes += len(data)
            self.ckpt_bytes += max(0, wrote - len(data))
        if hashlib.sha256(data).hexdigest() != block["sha256"]:
            return elapsed, cpu, f"scan {block['lo']} {block['hi']}: record stream differs"
        return elapsed, cpu, None

    def audit(self, event: str, args) -> None:
        """Counts files opened for writing under the checkpoint directory."""
        if event != "open" or not isinstance(args[0], str):
            return
        path, mode, flags = args
        writing = (any(c in mode for c in "wax+") if isinstance(mode, str)
                   else bool(flags & (os.O_WRONLY | os.O_RDWR)))
        if writing and path.startswith(str(self.ckpt_dir)):
            self.ckpt_writes += 1


class RowWorkload:
    """classify.verify_invariant_row on seed-chosen row fields below 60000."""

    def __init__(self, mods: dict, work: Path):
        self.classify = mods["classify"]
        self.work = work
        fields = json.loads((DATA / "row_fields.json").read_text())["fields"]
        self.items = sorted(fields, key=lambda f: (f["ref_ms"], f["d"]))
        self.group = ROW_GROUP
        self.ckpt_writes = self.ckpt_bytes = self.output_bytes = 0

    def size(self, field) -> int:
        return 1

    def run(self, field, tracer=None) -> tuple[float, float, str | None]:
        verify = self.classify.verify_invariant_row
        try:
            if tracer is None:
                report, elapsed, cpu = timed(verify, field["d"])
            else:
                report, elapsed, cpu = timed(
                    tracer.call, "classify.verify_invariant_row", verify, field["d"])
        except Exception as exc:  # a raising field is a failed operation
            return 0.0, 0.0, f"verify {field['d']}: {exc!r}"
        if report.label != field["label"]:
            return elapsed, cpu, f"verify {field['d']}: label {report.label}"
        if not report.matched:
            bad = ",".join(e.column for e in report.mismatches())
            return elapsed, cpu, f"verify {field['d']}: mismatch in {bad}"
        return elapsed, cpu, None

    def audit(self, event: str, args) -> None:
        pass


def latency(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "tail": ordered[k],
        "tail_pct": 100.0 * (k + 1) / n,
        "beyond": n - 1 - k,
    }


def probe() -> float:
    """Seconds for a fixed stdlib-only computation.

    The measuring machine is shared, and its speed drifts by up to 2x over
    seconds; the probe, timed between operations, tracks that drift.
    """
    start = time.perf_counter()
    x = 3
    for _ in range(12000):
        x = (x * x + 12345) % 1_000_000_007
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(i * 7919 % 1009, i * i + 1)
    return time.perf_counter() - start


def io_probe(path: Path) -> float:
    """Seconds for ten truncating rewrites of a small file, as a checkpoint is
    written; tracks the drift of the file system under the checkout."""
    start = time.perf_counter()
    for i in range(10):
        path.write_text(f'{{"last": {i}}}', encoding="utf-8")
    return time.perf_counter() - start


def run_ops(workload, items, tracer=None, deadline=None):
    """Issue operations one after another.

    Returns (wall times, CPU times, scaled times, sizes, errors).  An operation's CPU
    time is scaled by PROBE_REF_S over the mean of the probes on either
    side of it, and the rest of its wall time, spent waiting, by
    IO_PROBE_REF_S over the mean of the I/O probes: a scaled time is the
    operation's time at the reference machine speed.
    """
    times, cpus, scaled, sizes, errors = [], [], [], [], []
    probe_file = workload.work / "probe.txt"
    before = probe(), io_probe(probe_file)
    for item in items:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        elapsed, cpu, error = workload.run(item, tracer)
        after = probe(), io_probe(probe_file)
        if error is None:
            cpu = min(cpu, elapsed)
            times.append(elapsed)
            cpus.append(cpu)
            scaled.append(
                cpu * PROBE_REF_S * 2 / (before[0] + after[0])
                + (elapsed - cpu) * IO_PROBE_REF_S * 2 / (before[1] + after[1])
            )
            sizes.append(workload.size(item))
        else:
            errors.append(error)
        before = after
    return times, cpus, scaled, sizes, errors


def measure(workload, seed: int, seconds: float, quick: bool) -> dict:
    rng = random.Random(seed)
    stream = rounds(workload.items, workload.group, rng)
    if quick:
        ops = next(stream)[:2]
        times, cpus, scaled, sizes, errors = run_ops(workload, ops)
    else:
        deadline = time.perf_counter() + seconds
        ops = (item for rnd in stream for item in rnd)
        times, cpus, scaled, sizes, errors = run_ops(workload, ops, deadline=deadline)
    out = {"attempted": len(times) + len(errors), "failed": len(errors),
           "errors": errors[:10], "metrics": {}, "info": {}}
    if times:
        lat, raw = latency(scaled), latency(times)
        out["metrics"] = {
            "items_per_s": sum(sizes) / sum(scaled),
            "op_ms_p50": lat["p50"] * 1000.0,
            "op_ms_tail": lat["tail"] * 1000.0,
        }
        out["info"] = {
            "ops": lat["n"], "items": sum(sizes), "tail_pct": lat["tail_pct"],
            "beyond_tail": lat["beyond"],
            "wall_items_per_s": sum(sizes) / sum(times),
            "wall_op_ms_p50": raw["p50"] * 1000.0,
            "wall_op_ms_tail": raw["tail"] * 1000.0,
            "slowdown_p50": statistics.median(
                t / s for t, s in zip(times, scaled)),
            "wait_share": 1.0 - sum(cpus) / sum(times),
        }
    return out


def measure_traced(workload, mods: dict, seed: int, quick: bool, spans) -> dict:
    """One seed-chosen round untraced, then the same round traced."""
    from spans import Tracer

    rng = random.Random(seed)
    ops = next(rounds(workload.items, workload.group, rng))
    if quick:
        ops = ops[:2]
    _, _, plain, _, errors = run_ops(workload, ops)
    tracer = Tracer()
    tracer.install(mods)
    active = [True]
    sys.addaudithook(lambda e, a: workload.audit(e, a) if active[0] else None)
    try:
        _, _, traced, _, traced_errors = run_ops(workload, ops, tracer)
    finally:
        active[0] = False
        tracer.remove()
    errors += traced_errors
    expected = sum(workload.size(item) for item in ops)

    metrics = tracer.summary()
    reasons = dict.fromkeys(REJECT_REASONS, 0)
    for d, exc_name in tracer.failed_classify:
        reasons[reject_reason(mods["arith"], d, exc_name)] += 1
    for reason, count in reasons.items():
        metrics[f"classify.reject.{reason}"] = count
    metrics["classify.records"] = tracer.records
    accounted = sum(reasons.values()) + tracer.records
    if accounted != expected:
        errors.append(
            f"rejections plus records = {accounted}, candidates = {expected}"
        )
    passed = tracer.records + reasons["no_row"]
    calls = metrics["qform.class_group.calls"]
    metrics["qform.class_group.pass_ratio"] = passed / calls if calls else 0.0
    metrics["cli.checkpoint_writes"] = workload.ckpt_writes
    metrics["cli.checkpoint_bytes"] = workload.ckpt_bytes
    metrics["cli.output_bytes"] = workload.output_bytes
    metrics["trace.overhead_ratio"] = (
        sum(traced) / sum(plain) - 1.0 if plain and traced else 0.0
    )
    if spans:
        tracer.write(spans)
    return {"attempted": 2 * len(ops), "failed": len(errors),
            "errors": errors[:10], "metrics": metrics,
            "info": {"ops": len(ops), "items": expected}}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    name = spec["workload"]
    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}")
    mods = import_quadtower()
    work = BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if name == "verify-rows":
            workload = RowWorkload(mods, work)
        else:
            workload = ScanWorkload(name, mods, work)
        if spec["trace"]:
            out = measure_traced(workload, mods, spec["seed"], spec["quick"],
                                 spec.get("spans"))
        else:
            out = measure(workload, spec["seed"], spec["seconds"], spec["quick"])
            # ru_maxrss is in KiB on Linux
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["metrics"]["peak_rss_mb"] = rss
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
