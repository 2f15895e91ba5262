"""CLI tests: subcommands, exit codes, scan persistence, determinism."""

import hashlib
import importlib
import json
import os
import pkgutil
import re
import shlex
import signal
import subprocess
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import quadtower
from quadtower import arith
from quadtower import classify as classify_mod
from quadtower import cli, conic, group2
from quadtower.arith import BoundExceededError, NotFundamentalError, factor_discriminant
from quadtower.classify import (
    InternalConsistencyError,
    NoRowMatchError,
    RowComputationError,
    RowPatternsUnavailableError,
    Verdict,
    family_member,
    iter_family,
    load_tables,
    tower_verdict,
)
from quadtower.cli import ScanRecord, main
from quadtower.conic import NoSolutionWithinBoundError
from quadtower.group2 import InvalidTableError
from quadtower.qform import character_matrix
from quadtower.units import DecompositionError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_basic(capsys):
    code, out, _ = run(capsys, "classify", "19176")
    assert code == 0
    assert "case: a1 (type I)" in out
    assert "verdict: AtLeast3" in out


def test_classify_factor_expression(capsys):
    code, out, _ = run(capsys, "classify", "8*17*-3*-47")
    assert code == 0
    assert "case: a1" in out


def test_classify_json_record_round_trips(capsys):
    code, out, _ = run(capsys, "classify", "19176", "--json")
    assert code == 0
    rec = ScanRecord.from_json(out.strip())
    assert rec.d == 19176
    assert rec.label == "a1"
    assert rec.factors == (8, 17, -47, -3)
    assert rec.to_json() == out.strip()


def test_classify_with_external_invariants(capsys):
    code, out, _ = run(capsys, "classify", "6072", "--octic-cl2", "2,4,4")
    assert code == 0
    assert "case: c3" in out
    assert "Exactly2_By8Rank" in out


@pytest.mark.parametrize("d", ["19176", "6072"])
@pytest.mark.parametrize("invariants", ["0", "2,4,-4"])
def test_classify_rejects_invalid_octic_invariants_for_every_quotient(
    capsys, d, invariants
):
    # 19176 has a quotient that decides the length without octic data
    code, _, err = run(capsys, "classify", d, "--octic-cl2", invariants)
    assert code == 2
    assert "invalid abelian invariants" in err


def test_classify_exit_codes(capsys):
    code, _, err = run(capsys, "classify", "15")
    assert code == 2
    assert "fundamental" in err
    code, _, err = run(capsys, "classify", "1596")
    assert code == 2
    assert "1596 is not (2, 2): its narrow 4-rank is 1, need 0" in err


def test_classify_not_a_discriminant_exits_2_with_one_line(capsys):
    assert run(capsys, "classify", "20") == (
        2, "", "error: 20 is not a fundamental discriminant\n"
    )


@pytest.mark.parametrize(
    "exc, code",
    [
        (NoRowMatchError("no row"), 3),
        (InternalConsistencyError("two rows"), 4),
        (RowComputationError(19176, "q1", BoundExceededError("cf")), 5),
        (RowComputationError(19176, "delta", DecompositionError("stray factor 3")), 4),
        (RowComputationError(19176, "order", ZeroDivisionError("division by zero")), 4),
        (NoSolutionWithinBoundError("x^2 = 5 y^2", 7), 5),
        (RowPatternsUnavailableError("no patterns"), 2),
        (InvalidTableError("bad table"), 2),
        (NotFundamentalError("not fundamental"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_main_exit_code_per_error_family(capsys, monkeypatch, exc, code):
    def fail(d):
        raise exc

    monkeypatch.setattr(cli, "classify", fail)
    got, out, err = run(capsys, "classify", "19176")
    assert got == code
    assert out == ""
    assert err == f"error: {exc}\n"


def test_main_exit_code_for_os_error(capsys, monkeypatch):
    def fail(d):
        raise OSError(13, "Permission denied", "some/file")

    monkeypatch.setattr(cli, "classify", fail)
    code, _, err = run(capsys, "classify", "19176")
    assert code == 1
    assert err == "error: some/file: Permission denied\n"


def test_classify_bad_expression_rejected(capsys):
    with pytest.raises(SystemExit) as e:
        main(["classify", "8*17*x"])
    assert e.value.code == 2


def test_scan_stream_and_histogram(capsys):
    code, out, err = run(capsys, "scan", "5", "8000")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    ds = [json.loads(ln)["d"] for ln in lines]
    assert ds == sorted(ds)
    assert 6072 in ds
    assert "scanned [5, 8000]" in err
    assert any(ln.startswith("c3 ") for ln in err.splitlines())


def test_scan_case_filter(capsys):
    code, out, _ = run(capsys, "scan", "5", "21000", "--case", "a1")
    assert code == 0
    records = [ScanRecord.from_json(ln) for ln in out.splitlines() if ln]
    assert records
    assert all(r.label == "a1" for r in records)
    assert any(r.d == 19176 for r in records)


def test_scan_is_deterministic(capsys):
    _, first, _ = run(capsys, "scan", "5", "5000")
    _, second, _ = run(capsys, "scan", "5", "5000")
    assert first == second


@pytest.mark.parametrize("lo, hi, records, stdout_sha, stderr_sha", [
    ("5", "20004", 372,
     "d357a33b0a94ef06699985054781224a9bc575e75cd2dd5d08f5e5ec5ca8933e",
     "62d404dbee501fdb0df41ed4ade646d5edc55afe413f3afaf0e939ef7507a70a"),
    ("2000000", "2019999", 737,
     "ae67638f39a8415e88e88a45f6f9a0b26ca651593bb3367cb8042c3bce02770e",
     "5a01ad78af7ec5c5f9e4ac71b63dfb45fba29481681a109e99498b71b9d685cd"),
])
def test_scan_output_is_pinned(capsys, lo, hi, records, stdout_sha, stderr_sha):
    # the record stream and the histogram, the elapsed time stripped from
    # its last line, byte for byte
    code, out, err = run(capsys, "scan", lo, hi)
    assert code == 0
    assert len(out.splitlines()) == records
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    histogram = re.sub(r", [0-9.]+s\n$", "\n", err)
    assert histogram.endswith(f"scanned [{lo}, {hi}], {records} records\n")
    assert hashlib.sha256(histogram.encode()).hexdigest() == stderr_sha


def test_scan_reads_the_clock_per_record_only_with_timing(capsys, monkeypatch):
    reads = Counter()
    clock = time.perf_counter

    def counting():
        reads["n"] += 1
        return clock()

    monkeypatch.setattr(cli.time, "perf_counter", counting)
    code, plain, _ = run(capsys, "scan", "5", "3000")
    assert code == 0
    assert reads["n"] < 10
    reads.clear()
    code, timed, _ = run(capsys, "scan", "5", "3000", "--timing")
    assert code == 0
    records = [json.loads(ln) for ln in timed.splitlines()]
    assert reads["n"] >= 2 * len(records) > 0
    assert all(r.pop("ms") >= 0 for r in records)
    assert records == [json.loads(ln) for ln in plain.splitlines()]


def test_scan_empty_range(tmp_path, capsys):
    out_file = tmp_path / "empty.jsonl"
    code, _, _ = run(capsys, "scan", "21", "24", "--output", str(out_file))
    assert code == 0
    assert out_file.read_text() == ""


def test_classify_and_scan_above_old_class_group_cap(capsys):
    # the precondition no longer enumerates forms, so d > 10^7 is fine
    code, out, _ = run(capsys, "classify", "10000041")
    assert code == 0
    assert "case: " in out and "verdict: " in out
    code, out, _ = run(capsys, "scan", "10000001", "10000300")
    assert code == 0
    ds = [json.loads(ln)["d"] for ln in out.splitlines()]
    assert ds and ds == [rec.d for rec in iter_family(10000001, 10000301)]
    # genus theory gives every subfield h2 with a zero 4-rank, whatever |d|
    code, out, _ = run(capsys, "verify-row", "10000060")
    assert code == 0
    assert "match = NO" not in out
    code, out, _ = run(capsys, "scan", "10000001", "10000300", "--verify-rows")
    assert code == 0
    checks = [json.loads(ln)["verification"] for ln in out.splitlines()]
    assert (len(checks), checks.count("matched"), checks.count("unavailable")) == (14, 3, 11)
    # a subfield with positive 4-rank above the bound still needs its forms
    code, _, err = run(capsys, "verify-row", "1000000140")
    assert code == 5
    assert err.strip() == (
        "error: d = 1000000140, column h2_3: |83333345| exceeds class group bound 10000000"
    )


@pytest.mark.parametrize("lo, hi", [(5, 10**5), (10**7 + 1, 10**7 + 3000)])
def test_scan_and_iter_family_match_classify_one_by_one(capsys, lo, hi):
    # oracle: family_member(d) with no sieve entry, which trial-divides d
    recs = [rec for rec in map(family_member, range(lo, hi)) if rec is not None]
    assert recs and list(iter_family(lo, hi)) == recs
    code, out, _ = run(capsys, "scan", str(lo), str(hi - 1))
    assert code == 0
    assert out == "".join(
        cli._record_for(rec, tower_verdict(rec).verdict.value, "skipped").to_json() + "\n"
        for rec in recs
    )


def test_scan_rejects_bad_range(capsys):
    code, _, err = run(capsys, "scan", "50", "50")
    assert code == 2
    assert "min < max" in err


def test_scan_parallel_matches_serial(capsys):
    # [1020, 4060] starts off a multiple of the block size, spans four
    # blocks and has family members at both ends
    for lo, hi in [(5, 4000), (1020, 4060)]:
        _, serial, _ = run(capsys, "scan", str(lo), str(hi))
        _, parallel, _ = run(capsys, "scan", str(lo), str(hi), "--jobs", "2")
        assert serial == parallel
        # scan MIN MAX is inclusive, iter_family(lo, hi) half-open
        ds = [json.loads(ln)["d"] for ln in serial.splitlines()]
        assert ds == [rec.d for rec in iter_family(lo, hi + 1)]
    assert ds[0] == lo and ds[-1] == hi


def test_scan_checkpoint_resume(tmp_path, capsys):
    out_file = tmp_path / "records.jsonl"
    ckpt = tmp_path / "scan.ckpt"
    code, _, _ = run(
        capsys, "scan", "5", "9000",
        "--output", str(out_file), "--checkpoint", str(ckpt),
    )
    assert code == 0
    full = out_file.read_text()
    state = json.loads(ckpt.read_text())
    assert state["last"] == 9000

    # rewind the checkpoint to mid-range, past which the output holds the
    # torn tail a killed run leaves behind
    lines = full.splitlines(keepends=True)
    cut = len(lines) // 2
    last_kept = json.loads(lines[cut - 1])["d"]
    kept = "".join(lines[:cut])
    out_file.write_text(kept + '{"torn')
    ckpt.write_text(json.dumps({"signature": state["signature"], "last": last_kept,
                                "offset": len(kept.encode())}))
    code, _, _ = run(
        capsys, "scan", "5", "9000",
        "--output", str(out_file), "--checkpoint", str(ckpt),
    )
    assert code == 0
    assert out_file.read_text() == full

    # the checkpoint now marks the whole range done: a rerun leaves the
    # output alone and says so, naming [min, max]
    code, out, err = run(
        capsys, "scan", "5", "9000",
        "--output", str(out_file), "--checkpoint", str(ckpt),
    )
    assert (code, out) == (0, "")
    assert err.startswith("nothing left to scan in [5, 9000], ")
    assert out_file.read_text() == full


def test_scan_checkpoint_signature_mismatch(tmp_path, capsys):
    ckpt = tmp_path / "scan.ckpt"
    out_file = tmp_path / "records.jsonl"
    run(capsys, "scan", "5", "3000", "--output", str(out_file),
        "--checkpoint", str(ckpt))
    records = out_file.read_text()
    for resumed in (["5", "4000"], ["5", "3000", "--format", "csv"]):
        code, _, err = run(
            capsys, "scan", *resumed,
            "--output", str(out_file), "--checkpoint", str(ckpt),
        )
        assert code == 2
        assert "different scan" in err
        assert out_file.read_text() == records


SIGNATURE = {"min": 5, "max": 3000, "case": [], "verdict": [], "verify": False,
             "format": "jsonl"}
NOT_A_CHECKPOINT = (
    "error: checkpoint {ckpt} is not a JSON object with "
    "'signature', 'last' and 'offset'\n"
)
NOT_FITTING = (
    "error: checkpoint {{ckpt}} does not fit the scan: it needs 5 <= last <= 3000 "
    "and offset >= 0, and has last {last} and offset {offset}\n"
)


@pytest.mark.parametrize(
    "content, output, code, error",
    [
        ("", None, 2, NOT_A_CHECKPOINT),
        ("[]", None, 2, NOT_A_CHECKPOINT),
        ({"signature": SIGNATURE}, None, 2, NOT_A_CHECKPOINT),
        ({"signature": SIGNATURE, "last": 1000}, "x\n", 2, NOT_A_CHECKPOINT),
        ({"signature": SIGNATURE, "last": 1000, "offset": "2"}, "x\n", 2,
         NOT_A_CHECKPOINT),
        (
            {"signature": SIGNATURE, "last": 1000, "offset": 60}, "x" * 59, 2,
            "error: output {out} is shorter than the 60 bytes recorded in "
            "checkpoint {ckpt}\n",
        ),
        (
            {"signature": SIGNATURE, "last": 1000, "offset": 0}, None, 1,
            "error: {out}: No such file or directory\n",
        ),
        (
            {"signature": SIGNATURE, "last": 4, "offset": 0}, "x\n", 2,
            NOT_FITTING.format(last=4, offset=0),
        ),
        (
            {"signature": SIGNATURE, "last": 3001, "offset": 0}, "x\n", 2,
            NOT_FITTING.format(last=3001, offset=0),
        ),
        (
            {"signature": SIGNATURE, "last": 1000, "offset": -1}, "x\n", 2,
            NOT_FITTING.format(last=1000, offset=-1),
        ),
    ],
    ids=["torn", "not-an-object", "no-last", "no-offset", "offset-not-int",
         "short-output", "missing-output", "last-below-min", "last-above-max",
         "negative-offset"],
)
def test_scan_checkpoint_malformed(tmp_path, capsys, content, output, code, error):
    ckpt = tmp_path / "scan.ckpt"
    out_file = tmp_path / "records.jsonl"
    ckpt.write_text(content if isinstance(content, str) else json.dumps(content))
    if output is not None:
        out_file.write_text(output)
    assert run(
        capsys, "scan", "5", "3000",
        "--output", str(out_file), "--checkpoint", str(ckpt),
    )[::2] == (code, error.format(ckpt=ckpt, out=out_file))
    # the output is neither truncated, padded nor created
    assert (out_file.read_text() if out_file.exists() else None) == output


def test_scan_survives_kills(tmp_path, capsys):
    """SIGKILL a checkpointed scan wherever it happens to be, resume it until
    it exits 0, and get the uninterrupted run's output byte for byte."""
    argv = ["scan", "5", "12000", "--format", "csv"]
    full = tmp_path / "full.csv"
    assert run(capsys, *argv, "--output", str(full))[0] == 0
    out_file, ckpt = tmp_path / "records.csv", tmp_path / "scan.ckpt"
    cmd = [sys.executable, "-m", "quadtower.cli", *argv,
           "--output", str(out_file), "--checkpoint", str(ckpt)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    stderr = tmp_path / "stderr.txt"

    def saved():
        return ckpt.read_bytes() if ckpt.exists() else None

    # None kills at a fixed time after the start, before or during the first
    # block; a number kills that many seconds after the checkpoint changed
    for delay in [None, 0.0, 0.002, 0.006, 0.015, 0.03, 0.0, 0.01, 0.02]:
        seen = saved()
        with open(stderr, "w") as log:
            proc = subprocess.Popen(cmd, env=env, stderr=log)
        try:
            if delay is None:
                time.sleep(0.15)
            else:
                while proc.poll() is None and saved() == seen:
                    time.sleep(0.001)
                time.sleep(delay)
            proc.kill()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        assert code in (0, -signal.SIGKILL), stderr.read_text()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert out_file.read_bytes() == full.read_bytes()


def test_scan_verify_rows_bound_failure_names_d(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise BoundExceededError("continued fraction exceeded 5 steps")

    argv = ["scan", "19170", "19180", "--verify-rows"]
    before_failure = run(capsys, *argv)[1].splitlines(keepends=True)[0]  # 19173
    monkeypatch.setattr(classify_mod, "kubota_index", exhausted)
    # the records before the failing d are written, in a worker process too
    # (the pool forks, so its workers see the patched kubota_index)
    for jobs in ("1", "2"):
        assert run(capsys, *argv, "--jobs", jobs) == (
            5,
            before_failure,
            "error: d = 19176, column q1: continued fraction exceeded 5 steps\n",
        )


def test_scan_verify_rows_internal_failure_exits_4(capsys, monkeypatch):
    def stray(unit):
        raise DecompositionError("stray factor 3")

    argv = ["scan", "19170", "19180", "--verify-rows"]
    before_failure = run(capsys, *argv)[1].splitlines(keepends=True)[0]  # 19173
    monkeypatch.setattr(classify_mod, "delta_invariant", stray)
    # a column stopped by anything but a bound is an internal failure
    for jobs in ("1", "2"):
        assert run(capsys, *argv, "--jobs", jobs) == (
            4,
            before_failure,
            "error: d = 19176, column delta: stray factor 3\n",
        )


def test_scan_trial_divides_only_blocks_too_narrow_to_sieve(capsys, monkeypatch):
    calls = Counter()
    original = arith.factorize

    def counting(n, *args, **kwargs):
        calls[n] += 1
        return original(n, *args, **kwargs)

    monkeypatch.setattr(arith, "factorize", counting)
    # blocks of 1000, 1000 and 2 integers: the last is too narrow to sieve;
    # of its two candidates only 2002001 has a discriminant's shape (2002000
    # and 2000000 are 16 times an integer), so only it is factored
    assert run(capsys, "scan", "2000000", "2002001")[0] == 0
    assert calls == {2002001: 1}
    calls.clear()
    assert run(capsys, "scan", "2000000", "2000002")[0] == 0
    assert calls == {2000001: 1}
    calls.clear()
    assert run(capsys, "scan", "2000000", "2000003")[0] == 0
    assert not calls


def test_scan_evaluates_no_kronecker_symbol(capsys, monkeypatch):
    calls = Counter()
    original = arith.kronecker

    def counting(a, n):
        calls["n"] += 1
        return original(a, n)

    # qform.prime_symbol owns the symbols of prime discriminants; only arith
    # and the conic solver bind the general symbol, and both are counted
    modules = [importlib.import_module(f"quadtower.{m.name}")
               for m in pkgutil.iter_modules(quadtower.__path__)]
    bound = [m for m in modules if hasattr(m, "kronecker")]
    assert [m.__name__ for m in bound] == ["quadtower.arith", "quadtower.conic"]
    for module in bound:
        monkeypatch.setattr(module, "kronecker", counting)
    # the counter is live: a conic's local check still reads its symbols this way
    assert conic.solve_conic(5, 41) and calls["n"] > 0
    calls.clear()
    code, out, _ = run(capsys, "scan", "2000000", "2001999")
    assert code == 0 and out
    assert not calls


def test_scan_factor_bound_failure_names_d(capsys):
    # 5000210000585 = 5 * 1000042000117, a product of two primes above 10^6
    code, out, err = run(
        capsys, "scan", "5000210000580", "5000210000590", "--bound", "10000000000000"
    )
    assert code == 5
    assert [json.loads(line)["d"] for line in out.splitlines()] == [5000210000581]
    assert err == (
        "error: cannot factor 5000210000585: cofactor 1000042000117 is "
        "composite with all prime factors > 1000000\n"
    )


def test_scan_stops_at_a_member_that_matches_no_row(capsys, monkeypatch):
    # only edited case tables can leave a signature without a row; the scan
    # then writes the records before that d and exits 3, as classify d does
    argv = ["scan", "5", "8000"]
    records = run(capsys, *argv)[1].splitlines(keepends=True)

    def signature(d):
        factors = factor_discriminant(d)
        return classify_mod._signature(factors, character_matrix(factors))

    lost = signature(6072)
    ds = [json.loads(line)["d"] for line in records]
    first = next(i for i, d in enumerate(ds) if signature(d) == lost)
    product = "*".join(map(str, factor_discriminant(ds[first])))
    search = classify_mod._search
    monkeypatch.setattr(
        classify_mod, "_search",
        lambda factors, mat: None if classify_mod._signature(factors, mat) == lost
        else search(factors, mat),
    )
    for jobs in ("1", "2"):
        monkeypatch.setattr(classify_mod, "_BY_SIGNATURE", {})
        assert run(capsys, *argv, "--jobs", jobs) == (
            3,
            "".join(records[:first]),
            f"error: {ds[first]} = {product} matches no classification row\n",
        )


def test_scan_verify_rows_classifies_each_field_once(capsys, monkeypatch):
    code, out, _ = run(capsys, "scan", "19170", "19180", "--verify-rows")
    assert code == 0 and len(out.splitlines()) == 3  # 19173, 19176, 19180
    original = classify_mod.classify
    calls = Counter()

    def counting(d, *args, **kwargs):
        calls[d] += 1
        return original(d, *args, **kwargs)

    monkeypatch.setattr(cli, "classify", counting)
    monkeypatch.setattr(classify_mod, "classify", counting)
    assert run(capsys, "scan", "19170", "19180", "--verify-rows")[:2] == (code, out)
    assert calls == Counter(d for d in range(19170, 19181) if d % 4 in (0, 1))


def test_scan_checkpoint_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUADTOWER_CHECKPOINT_DIR", str(tmp_path))
    out_file = tmp_path / "records.jsonl"
    code, _, _ = run(capsys, "scan", "5", "2000", "--output", str(out_file),
                     "--checkpoint", "relative.ckpt")
    assert code == 0
    assert (tmp_path / "relative.ckpt").exists()


def test_scan_csv_export(capsys):
    code, out, _ = run(capsys, "scan", "5", "8000", "--format", "csv",
                       "--case", "c3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ScanRecord.CSV_HEADER
    assert any(ln.startswith("6072,") and ",c3," in ln for ln in lines[1:])


@pytest.mark.parametrize(
    "config, flags, error",
    [
        ({"scan": {"jobs": "2"}}, [],
         "scan.jobs in config {cfg} must be a positive integer, got '2'"),
        ({"scan": {"bound": "100000"}}, [],
         "scan.bound in config {cfg} must be a positive integer, got '100000'"),
        ({"scan": {"jobs": True}}, [],
         "scan.jobs in config {cfg} must be a positive integer, got True"),
        ([1], [], "config {cfg} is not a JSON object with an optional 'scan' object"),
        ({"scan": 4}, [],
         "config {cfg} is not a JSON object with an optional 'scan' object"),
        (None, ["--jobs", "0"], "--jobs must be a positive integer, got 0"),
        (None, ["--jobs", "-3"], "--jobs must be a positive integer, got -3"),
        (None, ["--bound", "0"], "--bound must be a positive integer, got 0"),
    ],
    ids=["jobs-str", "bound-str", "jobs-bool", "not-an-object", "scan-not-an-object",
         "jobs-0", "jobs-negative", "bound-0"],
)
def test_scan_rejects_bad_settings(tmp_path, capsys, config, flags, error):
    cfg = tmp_path / "quadtower.json"
    argv = ["scan", "5", "100", *flags]
    if config is not None:
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), *argv]
    assert run(capsys, *argv) == (2, "", f"error: {error.format(cfg=cfg)}\n")


def test_scan_config_bound(tmp_path, capsys):
    cfg = tmp_path / "quadtower.json"
    cfg.write_text(json.dumps({"scan": {"bound": 6000}}))
    code, _, err = run(capsys, "--config", str(cfg), "scan", "5", "8000")
    assert code == 2
    assert "exceeds the configured bound" in err
    # explicit flag beats the config file
    code, _, _ = run(capsys, "--config", str(cfg), "scan", "5", "8000",
                     "--bound", "9000")
    assert code == 0


def test_verify_row_output(capsys):
    code, out, _ = run(capsys, "verify-row", "19176")
    assert code == 0
    assert "case = a1" in out
    assert "column = order  expected = 4h2(d1d2)  computed = 8  match = yes" in out
    assert "match = NO" not in out


def test_verify_row_unavailable(capsys):
    code, _, err = run(capsys, "verify-row", "22120")
    assert code == 2
    assert "a3" in err


def test_conic_solution(capsys):
    code, out, _ = run(capsys, "conic", "8", "17")
    assert code == 0
    assert "x = 5  y = 1  z = 1" in out
    assert "(25 = 25)" in out


def test_conic_insoluble(capsys):
    code, out, _ = run(capsys, "conic", "--", "5", "-3")
    assert code == 0
    assert "no solution exists" in out


@pytest.mark.parametrize(
    "argv, error",
    [
        (["unit", "12", "--max-steps", "-3"], "--max-steps must be a positive integer, got -3"),
        (["conic", "8", "17", "--bound", "0"], "--bound must be a positive integer, got 0"),
    ],
    ids=["unit-max-steps", "conic-bound"],
)
def test_search_bounds_must_be_positive(capsys, argv, error):
    assert run(capsys, *argv) == (2, "", f"error: {error}\n")


def test_unit_output(capsys):
    code, out, _ = run(capsys, "unit", "12")
    assert code == 0
    assert "2 + 1*sqrt(3)" in out
    assert "norm = +1" in out
    assert "delta = 6" in out
    code, out, _ = run(capsys, "unit", "40")
    assert code == 0
    assert "norm = -1" in out
    assert "delta = undefined" in out


def test_unit_prints_more_digits_than_the_int_str_guard(capsys):
    # x has 4315 digits, past Python's default limit of 4300 for str(int);
    # the command lifts the limit for its output only
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "unit", "2287489453")
    assert (code, err) == (0, "")
    epsilon, norm, delta = out.splitlines()
    x = epsilon.removeprefix("epsilon = (").split(" ")[0]
    assert len(x) == 4315 and x.isdigit()
    assert (norm, delta) == ("norm = +1", "delta = 69257")
    assert sys.get_int_max_str_digits() == limit
    if limit:  # parsing keeps the guard
        with pytest.raises(ValueError):
            int(x)


def test_classgroup_output(capsys):
    code, out, _ = run(capsys, "classgroup", "--", "-23")
    assert code == 0
    assert "h = 3" in out
    assert "invariants = [3]" in out
    code, out, _ = run(capsys, "classgroup", "19176")
    assert code == 0
    assert "two_sylow = [2, 2]" in out


def test_classgroup_checks_d_before_the_bound(capsys):
    # 10^8 = 0 mod 16 is no discriminant, above the bound as below it
    code, out, err = run(capsys, "classgroup", "100000000")
    assert (code, out) == (2, "")
    assert err.strip() == "error: 100000000 is not a fundamental discriminant"
    # 10^8 + 1 = 17 * 5882353 is fundamental, so only the bound stops it
    code, out, err = run(capsys, "classgroup", "100000001")
    assert (code, out) == (5, "")
    assert err.strip() == "error: |100000001| exceeds class group bound 10000000"


def test_classgroup_label_follows_the_group_computed(capsys):
    # an imaginary field has no narrow group, so --narrow gives the ordinary one
    code, out, _ = run(capsys, "classgroup", "--narrow", "--", "-23")
    assert code == 0
    assert out.splitlines()[0] == "d = -23  (ordinary)"
    code, out, _ = run(capsys, "classgroup", "--narrow", "40")
    assert code == 0
    assert out.splitlines()[0] == "d = 40  (narrow)"


def test_group_build_and_checks(capsys):
    code, out, _ = run(capsys, "group", "build-64150", "--check", "all")
    assert code == 0
    assert "order = 64" in out
    assert "derived-collapse: pass" in out
    assert "power-filtration: pass" in out
    assert "metabelian-descent: pass" in out


def test_group_build_and_checks_build_each_structure_once(capsys, monkeypatch):
    # the command prints G' and runs all three checks on one group object,
    # which builds its lower central series, its presentation triple and G'
    # once; a build of G' itself passes all of G as a range
    calls = Counter()

    def counting(name, fn, counts=lambda *args: True):
        def wrapper(*args):
            calls[name] += counts(*args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(group2, "lower_central_series",
                        counting("series", group2.lower_central_series))
    monkeypatch.setattr(group2, "_find_presentation_triple",
                        counting("triple", group2._find_presentation_triple))
    monkeypatch.setattr(group2, "derived_subgroup",
                        counting("derived", group2.derived_subgroup,
                                 lambda G, members=None: isinstance(members, range)))
    code, out, _ = run(capsys, "group", "build-64150", "--check", "all")
    assert (code, out.count(": pass")) == (0, 3)
    assert calls == {"series": 1, "triple": 1, "derived": 1}


def test_group_table_file_round_trip(tmp_path, capsys):
    path = tmp_path / "big.tbl"
    code, _, _ = run(capsys, "group", "build-64150", "--dump", str(path))
    assert code == 0
    code, out, _ = run(capsys, "group", "table", str(path))
    assert code == 0
    assert "order = 64" in out
    assert "maximal subgroups = 7" in out
    code, out, _ = run(capsys, "group", "check", str(path),
                       "--check", "power-filtration")
    assert code == 0
    assert "power-filtration: pass" in out


def test_group_check_not_applicable(tmp_path, capsys):
    from quadtower.group2 import quaternion

    path = tmp_path / "q8.tbl"
    quaternion().to_file(path)
    code, out, _ = run(capsys, "group", "check", str(path),
                       "--check", "power-filtration")
    assert code == 2
    assert "not applicable" in out


def test_group_bad_table_file(tmp_path, capsys):
    path = tmp_path / "bad.tbl"
    path.write_text("2\n0 1\n1 1\n")
    code, _, err = run(capsys, "group", "table", str(path))
    assert code == 2
    assert "inverse" in err


def test_group_table_file_errors_name_file_and_line(tmp_path, capsys):
    path = tmp_path / "token.tbl"
    path.write_text("2\n0 1\n1 x\n")
    code, _, err = run(capsys, "group", "table", str(path))
    assert code == 2
    assert f"{path}: line 3:" in err
    assert "'1 x'" in err
    path = tmp_path / "bytes.tbl"
    path.write_bytes(b"2\n0 1\n1 \xff\n")
    code, _, err = run(capsys, "group", "table", str(path))
    assert code == 2
    assert f"{path}: " in err
    assert "utf-8" in err
    for name, text, message in [
        ("short.tbl", "2\n0 1\n1\n", "line 3: expected 2 entries, got 1"),
        ("long.tbl", "2\n0 1 0\n1 0\n", "line 2: expected 2 entries, got 3"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        assert run(capsys, "group", "table", str(path)) == (
            2, "", f"error: {path}: {message}\n"
        )


def test_group_dump_file_is_pinned(tmp_path, capsys):
    path = tmp_path / "big.tbl"
    code, _, _ = run(capsys, "group", "build-64150", "--dump", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "94bca7b716dce829f9c4748e906245b99340a2554bfcde6ce6b0cdb6e0d05d2c"
    )


def test_missing_file_reports_path(capsys):
    code, _, err = run(capsys, "group", "table", "/nonexistent/thing.tbl")
    assert code == 1
    assert "/nonexistent/thing.tbl" in err


def test_group_library_sweep(capsys):
    code, out, _ = run(capsys, "group", "library")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) >= 10
    assert all(ln.endswith("ok") for ln in lines)


def test_scan_record_round_trip_with_timing():
    rec = ScanRecord(
        d=19176, factors=(8, 17, -47, -3), case_type="I", label="a1",
        gplus="64.144", verdict="AtLeast3", verification="matched", ms=1.25,
    )
    again = ScanRecord.from_json(rec.to_json())
    assert again == rec
    assert ScanRecord.from_json(rec.to_json()).to_json() == rec.to_json()


def test_scan_record_json_template_matches_json_dumps():
    # every case row, verdict and kind of verification a record can carry
    tables = load_tables()
    rows = [(case_type, row["gplus"], label)
            for case_type, table in tables["types"].items()
            for label, row in table["rows"].items()]
    assert len(rows) == 37
    checks = ("skipped", "matched", "unavailable", "mismatch:q1,h2_1")
    for (case_type, gplus, label), verdict, verification in product(
        rows, [v.value for v in Verdict], checks
    ):
        for d, factors in ((19176, (8, 17, -47, -3)),
                           (999999980044, (41213, 13, -466619, -4))):
            rec = ScanRecord(d=d, factors=factors, case_type=case_type,
                             label=label, gplus=gplus, verdict=verdict,
                             verification=verification)
            payload = dict(vars(rec))
            del payload["ms"]
            line = rec.to_json()
            assert line == json.dumps(payload, sort_keys=True, separators=(",", ":"))
            assert ScanRecord.from_json(line) == rec


def test_cli_import_leaves_group2_and_conic_unloaded():
    code = ("import json, sys, quadtower.cli\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('quadtower.')]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=60, check=True)
    loaded = set(json.loads(done.stdout))
    assert "quadtower.cli" in loaded
    assert not loaded & {"quadtower.group2", "quadtower.conic"}


@pytest.mark.parametrize("argv, lines, sha", [
    (["group", "build-64150", "--check", "all"], 5,
     "221b1db4235aac9178f9fdf9d00a19ae701c4daa0ad47919dd13c0fbe0f916b6"),
    (["group", "library"], 27,
     "dd84c3ecc4da57e5f2cbe5621fa4a4ac580049096a2db4c9d103af9b8fc68f75"),
    (["conic", "5", "-1"], 2,
     "a8593d10cfb1899ea11bc3395486739f4ff291830f27588670b181bbd19d3175"),
], ids=["build-64150", "library", "conic"])
def test_group_and_conic_output_is_pinned(capsys, argv, lines, sha):
    # sha256 of stdout, taken while cli still imported group2 and conic at
    # module level
    code, out, err = run(capsys, *argv)
    assert (code, err, len(out.splitlines())) == (0, "", lines)
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_readme_command_examples_parse():
    # every example of the README's Command line block parses, so renaming
    # or dropping a flag fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("quadtower ")]
    assert len(lines) == 13
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
