"""quadtower benchmark: scan throughput and verify-row latency.

    python3 bench/run.py --workload scan-dense --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn
    python3 bench/run.py --workload all --quick         # tiny smoke run
    python3 bench/run.py --compare DIR_A DIR_B          # two result sets

Each workload runs in a fresh worker process (bench/worker.py) that imports
quadtower from this checkout's src/.  With --trace 0 the run reports the
end-to-end metrics named in BENCHMARK.json, with --trace 1 the per-layer
metrics of a traced run.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Every run also writes its figures, seed and environment to a
record in the results directory (bench/results by default), which
--compare reads.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import BENCH, PROBE_REF_S, ROOT, SRC, WORKLOADS, probe

SETUP_REPS = 11
SETUP_CODE = (
    "import quadtower.cli\n"
    "from quadtower import classify\n"
    "classify.load_tables()\n"
)
WORKER_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "loadavg": list(os.getloadavg()),
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_times(reps: int) -> list[tuple[float, float]]:
    """(wall, probe-scaled) times of fresh interpreters importing the CLI and
    the case tables; the probes run just before and after each interpreter.

    A blocking wait() returns as soon as the child exits; a wait with a
    timeout polls with sleeps of up to 50 ms, so the timeout is a timer.
    """
    times = []
    for _ in range(reps):
        before = probe()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE],
                                env=child_env(), stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        code = proc.wait()
        elapsed = time.perf_counter() - start
        watchdog.cancel()
        if code != 0:
            raise SystemExit(f"error: set-up interpreter exited {code}")
        after = probe()
        times.append((elapsed, elapsed * PROBE_REF_S * 2 / (before + after)))
    return times


def run_worker(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        env=child_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {spec['workload']} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(args, name: str, bench: dict) -> bool:
    env = environment()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    stem = f"{name}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    spec = {"workload": name, "seed": args.seed, "seconds": seconds,
            "trace": args.trace, "quick": args.quick,
            "spans": str(results / f"{stem}.spans.jsonl") if args.trace else None}
    # set-up is timed on both sides of the workload, so that one slow spell
    # of the shared machine does not decide it
    setup = [] if args.trace else setup_times(SETUP_REPS // 2)
    out = run_worker(spec)
    if not args.trace:
        setup += setup_times(SETUP_REPS - len(setup))
        out["metrics"]["setup_s"] = statistics.median(s for _, s in setup)
        out["info"]["wall_setup_s"] = statistics.median(w for w, _ in setup)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    if missing:
        out["errors"].append(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in out["metrics"]}
    attempted, failed = out["attempted"], out["failed"]
    correct = not out["errors"] and failed == 0 and attempted > 0

    load = " ".join(f"{x:.2f}" for x in env["loadavg"])
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  "
          f"git {env['git_sha'][:12]}  load {load}")
    for key, value in sorted(out["info"].items()):
        print(f"  ({key} = {value:g})")
    for key, m in metrics.items():
        print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'failed_ratio':44s} {ratio:14.6g} ratio ({failed}/{attempted})")
    for error in out["errors"]:
        print(f"  FAILED: {error}")

    record = {"workload": name, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "quick": args.quick, "env": env,
              "correct": correct, "attempted": attempted, "failed": failed,
              "info": out["info"], "errors": out["errors"], "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return correct


# -- compare mode ----------------------------------------------------------------


def load_results(directory: str) -> dict:
    """{(workload, metric): [values]} over the non-quick records in a directory."""
    values: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("quick"):
            continue
        for name, m in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(m["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], metric: dict) -> str:
    """Moved beyond the bound, within it, or unresolved by the spread."""
    if "bound" not in metric:
        return "-"
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    better_all = max(b) < min(a) if lower else min(b) > max(a)
    if (a3 - a1) > bound * am or (b3 - b1) > bound * bm:
        return "better (every run)" if better_all else "unresolved"
    change = (bm - am) / am if lower else (am - bm) / am
    if change > bound:
        return "WORSE"
    if change < -bound:
        return "better"
    return "within bound"


def compare(dir_a: str, dir_b: str, bench: dict) -> int:
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = load_results(dir_a), load_results(dir_b)
    worse = 0
    print(f"A = {dir_a}\nB = {dir_b}\nmedian [q1, q3] (runs)")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        if name not in metrics:
            continue
        (a1, am, a3), (b1, bm, b3) = quartiles(a[key]), quartiles(b[key])
        flag = verdict(a[key], b[key], metrics[name])
        worse += flag == "WORSE"
        change = f"{(bm - am) / am:+.1%}" if am else "n/a"
        print(f"{workload:12s} {name:42s} "
              f"A {am:.6g} [{a1:.6g}, {a3:.6g}] ({len(a[key])})  "
              f"B {bm:.6g} [{b1:.6g}, {b3:.6g}] ({len(b[key])})  "
              f"{change:>8s} {metrics[name]['unit']:6s} {flag}")
    for key in sorted(set(a) ^ set(b)):
        print(f"{key[0]:12s} {key[1]:42s} only in {'A' if key in a else 'B'}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="two operations per workload, for smoke tests")
    parser.add_argument("--results", default=str(BENCH / "results"),
                        help="directory for the run records")
    parser.add_argument("--compare", nargs=2, metavar="DIR")
    args = parser.parse_args(argv)
    bench = load_spec()
    if args.compare:
        return compare(*args.compare, bench)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if not (SRC / "quadtower" / "__init__.py").is_file():
        print(f"error: no quadtower sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_one(args, name, bench) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
