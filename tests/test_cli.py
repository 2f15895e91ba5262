"""CLI tests: subcommands, exit codes, scan persistence, determinism."""

import json
from collections import Counter

import pytest

from quadtower import classify as classify_mod
from quadtower import cli
from quadtower.arith import BoundExceededError, NotFundamentalError
from quadtower.classify import (
    InternalConsistencyError,
    NoRowMatchError,
    RowComputationError,
    RowPatternsUnavailableError,
)
from quadtower.cli import ScanRecord, main
from quadtower.conic import NoSolutionWithinBoundError, SignRuleError
from quadtower.group2 import InvalidTableError


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


def test_classify_exit_codes(capsys):
    code, _, err = run(capsys, "classify", "15")
    assert code == 2
    assert "fundamental" in err
    code, _, err = run(capsys, "classify", "1596")
    assert code == 2
    assert "[2, 4]" in err


@pytest.mark.parametrize(
    "exc, code",
    [
        (NoRowMatchError("no row"), 3),
        (InternalConsistencyError("two rows"), 4),
        (RowComputationError(19176, "q1", BoundExceededError("cf")), 5),
        (NoSolutionWithinBoundError("x^2 = 5 y^2", 7), 5),
        (RowPatternsUnavailableError("no patterns"), 2),
        (SignRuleError("no sign"), 2),
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


def test_scan_empty_range(tmp_path, capsys):
    out_file = tmp_path / "empty.jsonl"
    code, _, _ = run(capsys, "scan", "21", "24", "--output", str(out_file))
    assert code == 0
    assert out_file.read_text() == ""


def test_scan_rejects_bad_range(capsys):
    code, _, err = run(capsys, "scan", "50", "50")
    assert code == 2
    assert "min < max" in err


def test_scan_parallel_matches_serial(capsys):
    _, serial, _ = run(capsys, "scan", "5", "4000")
    _, parallel, _ = run(capsys, "scan", "5", "4000", "--jobs", "2")
    assert serial == parallel


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

    # rewind the checkpoint to mid-range and truncate the output to match
    lines = full.splitlines(keepends=True)
    cut = len(lines) // 2
    last_kept = json.loads(lines[cut - 1])["d"]
    out_file.write_text("".join(lines[:cut]))
    ckpt.write_text(json.dumps({"signature": state["signature"], "last": last_kept}))
    code, _, _ = run(
        capsys, "scan", "5", "9000",
        "--output", str(out_file), "--checkpoint", str(ckpt),
    )
    assert code == 0
    assert out_file.read_text() == full


def test_scan_checkpoint_signature_mismatch(tmp_path, capsys):
    ckpt = tmp_path / "scan.ckpt"
    out_file = tmp_path / "records.jsonl"
    run(capsys, "scan", "5", "3000", "--output", str(out_file),
        "--checkpoint", str(ckpt))
    code, _, err = run(
        capsys, "scan", "5", "4000",
        "--output", str(out_file), "--checkpoint", str(ckpt),
    )
    assert code == 2
    assert "different scan" in err


@pytest.mark.parametrize(
    "content",
    [
        "",
        "[]",
        json.dumps({"signature": {"min": 5, "max": 3000, "case": [],
                                  "verdict": [], "verify": False}}),
    ],
    ids=["torn", "not-an-object", "no-last"],
)
def test_scan_checkpoint_malformed(tmp_path, capsys, content):
    ckpt = tmp_path / "scan.ckpt"
    ckpt.write_text(content)
    code, _, err = run(capsys, "scan", "5", "3000", "--checkpoint", str(ckpt))
    assert code == 2
    assert err == (
        f"error: checkpoint {ckpt} is not a JSON object with "
        "'signature' and 'last'\n"
    )


def test_scan_verify_rows_bound_failure_names_d(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise BoundExceededError("continued fraction exceeded 5 steps")

    monkeypatch.setattr(classify_mod, "kubota_index", exhausted)
    code, _, err = run(capsys, "scan", "19170", "19180", "--verify-rows")
    assert code == 5
    assert err == (
        "error: d = 19176, column q1: continued fraction exceeded 5 steps\n"
    )


def test_scan_verify_rows_classifies_each_field_once(capsys, monkeypatch):
    code, out, _ = run(capsys, "scan", "19170", "19180", "--verify-rows")
    assert code == 0 and len(out.splitlines()) == 3  # 19173, 19176, 19180
    original = classify_mod.classify
    calls = Counter()

    def counting(d):
        calls[d] += 1
        return original(d)

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


def test_classgroup_output(capsys):
    code, out, _ = run(capsys, "classgroup", "--", "-23")
    assert code == 0
    assert "h = 3" in out
    assert "invariants = [3]" in out
    code, out, _ = run(capsys, "classgroup", "19176")
    assert code == 0
    assert "two_sylow = [2, 2]" in out


def test_group_build_and_checks(capsys):
    code, out, _ = run(capsys, "group", "build-64150", "--check", "all")
    assert code == 0
    assert "order = 64" in out
    assert "derived-collapse: pass" in out
    assert "power-filtration: pass" in out
    assert "metabelian-descent: pass" in out


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
