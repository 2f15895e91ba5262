"""Case classification, tower verdicts, and invariant-row verification."""

import dataclasses
import hashlib
import json
import math
import time
from collections import Counter
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadtower import arith, qform, units
from quadtower import classify as classify_mod
from quadtower.arith import (
    BoundExceededError,
    NotFundamentalError,
    factor_discriminant,
    is_sum_of_two_squares,
    kronecker,
    prime_of,
)
from quadtower.classify import (
    CaseRecord,
    InternalConsistencyError,
    NoRowMatchError,
    PreconditionError,
    RowComputationError,
    RowPatternsUnavailableError,
    Verdict,
    classify,
    iter_family,
    load_tables,
    tower_verdict,
    verify_invariant_row,
)
from quadtower.cli import _target
from quadtower.conic import h8_symbols
from quadtower.qform import character_matrix, narrow_four_rank

from strategies import four_factor_discriminants

# Published example fields. 77736 = 41*8*79*3 is listed as a5 in the source
# example list, but its symbol row and its computed unit invariants both
# satisfy a6 (it is a Kronecker twin of 6888, the published a6 example, under
# 79 <-> 7); the classifier follows the tables. The acceptance suite carries
# the literal published pin and documents the mismatch.
PINS = [
    (8 * 17 * 3 * 47, "a1"),
    (8 * 113 * 3 * 7, "a2"),
    (8 * 5 * 7 * 79, "a3"),
    (8 * 5 * 31 * 7, "a4"),
    (41 * 8 * 79 * 3, "a6"),  # published as a5, see note above
    (8 * 41 * 3 * 7, "a6"),
    (5 * 17 * 11 * 31, "a8"),
    (13 * 5 * 131 * 7, "a9"),
    (61 * 5 * 11 * 4, "b5"),
    (41 * 5 * 7 * 4, "b6"),
    (29 * 5 * 3 * 4, "b1"),
    (17 * 5 * 19 * 4, "b8"),
    (401 * 5 * 3 * 4, "b6"),
    (7 * 3 * 43 * 31, "c2"),
    (3 * 8 * 11 * 23, "c3"),
    (7 * 3 * 47 * 4, "d5"),
    (11 * 43 * 7 * 4, "d8"),
    (7 * 31 * 23 * 4, "d1"),
]


@pytest.mark.parametrize("d,label", PINS)
def test_classification_pins(d, label):
    start = time.perf_counter()
    rec = classify(d)
    assert time.perf_counter() - start < 1.0
    assert rec.label == label
    assert rec.d == d


def test_record_details():
    rec = classify(19176)
    assert rec.case_type == "I"
    assert rec.assignment == (8, 17, -47, -3)
    assert rec.symbol_matrix == (0, 0, 0, 1, 1, 0)
    assert rec.g_type == frozenset({"Qg", "D"})
    assert rec.gplus_label == "64.144"
    assert rec.g_order_formula == "4h2(d1d2)"
    assert rec.primes == (2, 17, 47, 3)

    rec = classify(59605)
    assert rec.assignment == (5, 13, -131, -7)
    assert rec.gplus_label == "64.147"
    assert rec.g_type == frozenset({"Q"})

    rec = classify(6072)
    assert rec.case_type == "III"
    assert rec.assignment == (-3, -8, -11, -23)
    # no invariant patterns encoded for c-rows
    assert rec.g_order_formula is None

    rec = classify(3948)
    assert rec.case_type == "IV"
    assert rec.assignment == (-7, -3, -47, -4)


def test_twin_fields_share_label():
    # 77736 and 6888 agree on every Kronecker symbol under 79 <-> 7, so any
    # deterministic classifier must give them the same label.
    assert classify(77736).label == classify(6888).label == "a6"
    assert classify(77736).assignment == (8, 41, -3, -79)
    assert classify(6888).assignment == (8, 41, -3, -7)


def test_assignment_satisfies_type_constraints():
    tables = load_tables()
    for d in (19176, 18984, 13420, 5740, 27993, 19964):
        rec = classify(d)
        table = tables["types"][rec.case_type]
        d1, d2, d3, d4 = rec.assignment
        assert d3 < 0 and d4 < 0
        if rec.case_type in ("I", "II"):
            assert d1 > 0 and d2 > 0
        else:
            assert d1 < 0 and d2 < 0
        if "d4" in table:
            assert d4 == -4
        for top, under, want in table.get("fixed", ()):
            value = rec.assignment[int(top[1]) - 1]
            p = prime_of(rec.assignment[int(under[1]) - 1])
            assert kronecker(value, p) == want


def test_determinism():
    first = classify(19176)
    for _ in range(3):
        assert classify(19176) == first


def test_preconditions():
    with pytest.raises(PreconditionError, match="positive"):
        classify(-420)
    with pytest.raises(PreconditionError, match="fundamental"):
        classify(19176 * 4)
    with pytest.raises(PreconditionError, match="fundamental"):
        classify(15)  # 15 = 3 mod 4
    with pytest.raises(PreconditionError, match="factors"):
        classify(40)  # 8 * 5, two factors only
    with pytest.raises(PreconditionError, match="sum of two squares"):
        classify(5 * 13 * 17 * 29)
    with pytest.raises(PreconditionError, match=r"not \(2, 2\): its narrow 4-rank is 1,"):
        classify(1596)  # 2-class group C2 x C4


def test_h8_predicate():
    def h8_predicate(assignment):
        """Whether the four quaternion-embedding symbols all equal +1."""
        if isinstance(assignment, CaseRecord):
            assignment = assignment.assignment
        return all(kronecker(top, p) == 1 for top, p in h8_symbols(*assignment))

    assert h8_predicate(classify(59605))  # a9
    assert h8_predicate(classify(8520))  # a9
    assert h8_predicate(classify(3720))  # a10
    assert h8_predicate(classify(8364))  # b10
    assert not h8_predicate(classify(2145))  # a13
    assert h8_predicate((5, 13, -131, -7))
    assert not h8_predicate((13, 5, -11, -3))


VERDICT_PINS = [
    (19176, None, Verdict.AT_LEAST_3),  # a1, 64.144
    (1820, None, Verdict.EXACTLY_2),  # b9, 32.037
    (27993, None, Verdict.AT_LEAST_3),  # c2, 32.033
    (3948, None, Verdict.AT_LEAST_3),  # d5, 32.033
    (13244, None, Verdict.AT_LEAST_3),  # d8, 32.033
    (6072, (2, 4, 4), Verdict.EXACTLY_2_BY_8RANK),  # c3, 64.150, 8-rank 0
    (19964, (2, 4, 8), Verdict.UNKNOWN_64_150),  # d1, 64.150, 8-rank 1
    (6072, None, Verdict.UNKNOWN_64_150),
]


@pytest.mark.parametrize("d,external,verdict", VERDICT_PINS)
def test_tower_verdicts(d, external, verdict):
    result = tower_verdict(classify(d), external)
    assert result.verdict is verdict
    assert result.justification


def test_verdict_justifications_mention_the_label():
    v = tower_verdict(classify(1820))
    assert "32.037" in v.justification
    v = tower_verdict(classify(19964), (2, 4, 8))
    assert "8-rank 1" in v.justification
    with pytest.raises(ValueError, match="invalid abelian invariants"):
        tower_verdict(classify(19964), (2, 0, 8))


def test_verdict_partition_lock():
    # regression lock on the label -> verdict table
    expected = {
        "32.033": "AtLeast3",
        "32.034": "Exactly2",
        "32.036": "Exactly2",
        "32.037": "Exactly2",
        "32.039": "Exactly2",
        "32.041": "Exactly2",
        "64.144": "AtLeast3",
        "64.146": "AtLeast3",
        "64.147": "AtLeast3",
        "64.150": "Unknown64_150",
    }
    assert load_tables()["verdicts"] == expected


def test_classify_rejects_a_non_discriminant_with_one_raise():
    with pytest.raises(NotFundamentalError) as info:
        classify(20)
    assert isinstance(info.value, PreconditionError)
    assert str(info.value) == "20 is not a fundamental discriminant"
    # raised by the factoring itself, not re-raised while handling another
    assert info.value.__context__ is None
    assert PreconditionError is arith.PreconditionError
    assert "PreconditionError" in classify_mod.__all__


def test_memoised_tower_verdict_equals_a_fresh_computation():
    rec = classify(19176)
    for label in load_tables()["verdicts"]:
        labelled = dataclasses.replace(rec, gplus_label=label)
        assert tower_verdict(labelled) == classify_mod._verdict(label, None)
        assert tower_verdict(labelled) is tower_verdict(labelled)


def test_tower_verdict_with_octic_data_is_not_memoised():
    rec = dataclasses.replace(classify(19176), gplus_label="64.150")
    plain = tower_verdict(rec)
    memo = classify_mod._label_verdict.cache_info()
    by8 = tower_verdict(rec, (2, 4, 4))
    unknown = tower_verdict(rec, [2, 4, 8])
    assert (plain.verdict, by8.verdict, unknown.verdict) == (
        Verdict.UNKNOWN_64_150, Verdict.EXACTLY_2_BY_8RANK, Verdict.UNKNOWN_64_150)
    assert "(2, 4, 8) has 8-rank 1" in unknown.justification
    assert tower_verdict(rec, (2, 4, 4)) is not by8
    # the memo is neither read nor filled by calls with octic data
    assert classify_mod._label_verdict.cache_info() == memo


ROW_FIELDS = [19176, 59605, 13420, 5740, 8540, 24060]


@pytest.mark.parametrize("d", ROW_FIELDS)
def test_invariant_rows_match(d):
    start = time.perf_counter()
    report = verify_invariant_row(d)
    assert time.perf_counter() - start < 30.0
    assert report.matched, [
        (e.column, e.expected, e.computed) for e in report.mismatches()
    ]


def test_invariant_row_values():
    report = verify_invariant_row(19176)
    values = {e.column: e.computed for e in report.entries}
    assert values["delta"] == "102"  # p1 p2 p4 = 2*17*3
    assert values["delta1"] == "51"
    assert values["delta2"] == "6"
    assert values["order"] == "8"
    assert report.eps_sign == +1 and report.nu34 == 0

    report = verify_invariant_row(59605)
    values = {e.column: e.computed for e in report.entries}
    assert report.eps_sign == -1
    assert values["order"] == "8"

    # b6 instance with h2(p1 p2) = 4: order doubles
    report = verify_invariant_row(24060)
    values = {e.column: e.computed for e in report.entries}
    assert report.nu34 == 1
    assert values["order"] == "16"
    assert values["delta"] == "10"  # branch 2p2, not 2p1p3


def test_invariant_row_computes_each_two_class_number_once(monkeypatch):
    original = classify_mod.two_class_number
    calls = Counter()

    def counting(disc):
        calls[disc] += 1
        return original(disc)

    monkeypatch.setattr(classify_mod, "two_class_number", counting)
    by_d = verify_invariant_row(19176)
    assert len(calls) == 7 and set(calls.values()) == {1}
    # the lookup lives for one call only, and a record skips classifying
    assert verify_invariant_row(classify(19176)) == by_d
    assert set(calls.values()) == {2}


def test_invariant_row_runs_each_continued_fraction_once(monkeypatch):
    original = units.fundamental_unit
    calls = Counter()

    def counting(disc, *args, **kwargs):
        calls[disc] += 1
        return original(disc, *args, **kwargs)

    # the columns and the octic table read one memo of classify's
    # fundamental_unit; the patch in units counts any call around the memo
    monkeypatch.setattr(classify_mod, "fundamental_unit", counting)
    monkeypatch.setattr(units, "fundamental_unit", counting)
    by_d = verify_invariant_row(19176)
    d1, d2, d3, d4 = by_d.assignment
    # the octic field and its quartic subfields have seven quadratic subfields
    assert set(calls) == {d1, d2, d3 * d4, d1 * d2, d1 * d3 * d4, d2 * d3 * d4, 19176}
    assert set(calls.values()) == {1}
    # the units live for one call only
    assert verify_invariant_row(classify(19176)) == by_d
    assert set(calls.values()) == {2}


def test_invariant_row_walks_one_character_table(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(units, "_characters", counting("walks", units._characters))
    monkeypatch.setattr(units, "_character_vector",
                        counting("vectors", units._character_vector))
    path = Path(__file__).resolve().parent.parent / "bench" / "data" / "row_fields.json"
    for n, d in enumerate(f["d"] for f in json.loads(path.read_text())["fields"]):
        # the octic field's characters serve its three quartic subfields too
        assert calls["walks"] == n
        verify_invariant_row(d)
    assert calls["walks"] == 151
    # one vector for each of a field's seven subfield units, 1057 in all,
    # and one for each root swapped into a basis
    assert calls["vectors"] == 2221


def test_invariant_row_builds_each_square_root_once(monkeypatch):
    # _sqrt looks SqrtUnitDecomposition up at call time, so every root built
    # is counted, under the unit's radicand m: m1 m2 is m times a square
    path = Path(__file__).resolve().parent.parent / "bench" / "data" / "row_fields.json"
    fields = [f["d"] for f in json.loads(path.read_text())["fields"]][::30]
    original = units.SqrtUnitDecomposition
    calls = Counter()

    def counting(a, b, basis):
        calls[arith.squarefree_kernel(basis[0] * basis[1])] += 1
        return original(a, b, basis)

    monkeypatch.setattr(units, "SqrtUnitDecomposition", counting)
    for d in fields:
        calls.clear()
        d1, d2, d3, d4 = verify_invariant_row(d).assignment
        # the delta columns and the four unit indices read the units of the
        # octic field's seven quadratic subfields
        discs = {d1, d2, d3 * d4, d1 * d2, d1 * d3 * d4, d2 * d3 * d4, d}
        plus = {arith.radicand(D) for D in discs if units.fundamental_unit(D).norm == 1}
        assert plus and calls == Counter(dict.fromkeys(plus, 1))
        # the roots live for one call only
        verify_invariant_row(d)
        assert calls == Counter(dict.fromkeys(plus, 2))


def test_invariant_row_two_class_number_failure_names_column(monkeypatch):
    def exhausted(disc):
        raise BoundExceededError(f"form bound exceeded at {disc}")

    monkeypatch.setattr(classify_mod, "two_class_number", exhausted)
    with pytest.raises(RowComputationError, match=r"^d = 19176, column h2_1: "):
        verify_invariant_row(19176)


def test_invariant_row_pattern_failure_names_column(monkeypatch):
    def exhausted(pattern, assignment, h2):
        raise BoundExceededError(f"pattern {pattern} exceeded its bound")

    # q1 is the first column whose expected value is a class-number pattern
    monkeypatch.setattr(classify_mod, "_pattern_value", exhausted)
    with pytest.raises(RowComputationError, match=r"^d = 19176, column q1: "):
        verify_invariant_row(19176)


def test_pattern_value_reads_the_kernel_off_the_power_of_two():
    # every q, h2 and order pattern of every label, on every ordered 4-tuple
    # of prime discriminants of distinct primes from a pool with all three
    # even ones, and on every assignment of the row corpus: the kernel read
    # off v2 of the atom product is squarefree_kernel's
    patterns = set()
    for row in load_tables()["invariant_rows"].values():
        if not isinstance(row, dict):
            continue
        for column in ("q", "h2", "order"):
            for spec in row[column] if isinstance(row[column], list) else [row[column]]:
                patterns.update([v for k, v in spec.items() if k != "by"]
                                if isinstance(spec, dict) else [spec])
    pool = [-4, 8, -8, -3, 5, -7, -11, 13]
    assignments = [a for a in permutations(pool, 4)
                   if len({prime_of(q) for q in a}) == 4]
    path = Path(__file__).resolve().parent.parent / "bench" / "data" / "row_fields.json"
    assignments += [classify(f["d"]).assignment for f in json.loads(path.read_text())["fields"]]
    atoms, valuations = set(), set()
    for a in assignments:
        for pattern in patterns:
            m = classify_mod._PATTERN_RE.fullmatch(pattern)
            want = int(m.group(1) or 1)
            if m.group(2):
                n = classify_mod._atoms_value(m.group(2), a)
                want *= arith.discriminant_of(arith.squarefree_kernel(n))
                atoms.add(m.group(2))
                valuations.add((n & -n).bit_length() - 1)
            assert classify_mod._pattern_value(pattern, a, lambda disc: disc) == want
    assert atoms == {"d1d2", "p1p2"} and valuations == {0, 1, 2, 3}


# sha256 of the compact JSON list of every InvariantRowReport of
# bench/data/row_fields.json, each as dataclasses.astuple (d, label,
# assignment, nu34, eps_sign and every column's expected and computed value),
# pinned from the character-by-character filter of commit 61cb93f
ROW_CORPUS_REPORTS_SHA256 = "c007170d394f1d9714f6a54d917663e1a787dc93ae92ed08aefb5677da57ac91"


def test_invariant_reports_of_the_row_corpus_match_pinned_digest():
    path = Path(__file__).resolve().parent.parent / "bench" / "data" / "row_fields.json"
    fields = [f["d"] for f in json.loads(path.read_text())["fields"]]
    reports = [dataclasses.astuple(verify_invariant_row(d)) for d in fields]
    assert len(reports) == 151
    digest = hashlib.sha256(json.dumps(reports, separators=(",", ":")).encode()).hexdigest()
    assert digest == ROW_CORPUS_REPORTS_SHA256


# Every row field below 10^6, pinned by range of 10^5 and as a whole: the
# count of fields, the sha256 of their compact JSON list, and the sha256 of
# their reports hashed as ROW_CORPUS_REPORTS_SHA256 is, all taken from the
# form enumeration that built each class group (commit a750521).  Their
# subfields reach 10^6, where the 151 fields above reach 60000.
WIDE_ROW_RANGES = {
    (5, 100000): (277, "3c2486967a5c7aa6a0319b71508de812e25883e79ca55a4de8684f82f5818290",
                  "8ee649fc1a5c61440a54d40b31d8920a7d8c2ee951900b5bfc1f65eba2ad98bc"),
    (100000, 200000): (337, "fef57910e5b8cec1a0e34d2b0d85f08da57148df1334c68db53a42cb59adac4d",
                       "0b9e20d7129604646bc63fd76a255be9821f6de05160856038272fa1e6ff0083"),
    (200000, 300000): (321, "4ef6294a0188a8038146df6d5e691a5644168e325ad199a2812f13b956b918aa",
                       "1f3a36c027337e7e0da0886d8d6b5e6f613f7139c9b935e21f0bf76caed6ecab"),
    (300000, 400000): (361, "eb8f31ecb84f41dff5a6ef89235f28358bcc74c6d169fa11321d604636916f46",
                       "f8216f2dfc2d66a031f8a777c60af3b212517d454a131246d285b83a41d4d802"),
    (400000, 500000): (356, "b20c6d2a45f4c2fa97743c04aa48d32e148a7e186ebc37ad6efec23b26f99687",
                       "d96eecfccb66eff693a2848b8974196f2b51b9a6aa30b4a0c1799b08e86e681a"),
    (500000, 600000): (368, "9c07f8ef5e761a5712ad01c72c81ff7923d7ba41a7300ba4cef29044c6fd38ce",
                       "e5d165399703cdca5c81b775acb368056ed64fec7df9e42fc8b0f6723b728028"),
    (600000, 700000): (385, "f77e8992f13d4462c7c4e2f57530e6e449b03ee94e089ae9d45160ed8138a0e5",
                       "b485d003807c15d62950f6e3c55b3c46ddaf13bb9448c77efcc9eb4c0b2bfc34"),
    (700000, 800000): (357, "8b976d0a14727b3788d7d9bd0f9152b2421b474f99c3eb5812030fbae0608f59",
                       "60d31718c5840b6d539e72ce7e72d67c57e88f8978ba95f28a25515aba218c98"),
    (800000, 900000): (419, "08ee0fe51936930f6e4bfdbaf19614613dc420c9612b6a761f1f3f8a1d9953e8",
                       "7adaa00d70243190badd663efb6d76408cc9c1b6cc1fcc5929ea0bafb3d98739"),
    (900000, 1000000): (386, "be988995fb163324f16311842c6073540e4fb2bb456de405161fc8b2fd2b6a20",
                        "6edc5dc573740afc94ad1f2da1f3d5fbbd6e44b263b4230951cc22bb703ec59a"),
}
WIDE_ROW_CORPUS = (3567, "1c37047afd9319dc9581c96cc45383a3e735bb6df24e1bd1672f071450084aa4",
                   "5ad8fbd63a8103ec6d8c97074c3e8a8e2f10fcc710169525dd2935010dc57623")


def _sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


@pytest.fixture(scope="module")
def wide_rows():
    """(lo, hi) -> (row fields in [lo, hi), their reports as tuples),
    each range verified once per module."""
    labelled = load_tables()["invariant_rows"]
    done = {}

    def rows(lo, hi):
        if (lo, hi) not in done:
            fields = [rec.d for rec in iter_family(lo, hi) if rec.label in labelled]
            reports = [verify_invariant_row(d) for d in fields]
            assert all(r.matched for r in reports), [r.d for r in reports if not r.matched]
            done[lo, hi] = fields, [dataclasses.astuple(r) for r in reports]
        return done[lo, hi]

    return rows


@pytest.mark.parametrize("lo, hi", list(WIDE_ROW_RANGES))
def test_row_fields_below_1e6_match_pinned_digests_by_range(wide_rows, lo, hi):
    fields, reports = wide_rows(lo, hi)
    assert (len(fields), _sha256_json(fields), _sha256_json(reports)) == \
        WIDE_ROW_RANGES[lo, hi]


def test_row_fields_below_1e6_match_pinned_digests(wide_rows):
    fields, reports = [], []
    for lo, hi in WIDE_ROW_RANGES:
        more_fields, more_reports = wide_rows(lo, hi)
        fields += more_fields
        reports += more_reports
    assert (len(fields), _sha256_json(fields), _sha256_json(reports)) == WIDE_ROW_CORPUS


def test_invariant_row_unavailable():
    with pytest.raises(RowPatternsUnavailableError, match="a3"):
        verify_invariant_row(22120)


def test_scan_totality():
    # every qualifying discriminant below the bound lands in exactly one row
    seen = 0
    for rec in iter_family(5, 20000):
        seen += 1
        assert rec.label in {
            f"{t}{i}" for t, n in (("a", 13), ("b", 13), ("c", 3), ("d", 8))
            for i in range(1, n + 1)
        }
    assert seen > 300


def test_iter_family_skips_out_of_family():
    labels = {rec.d: rec.label for rec in iter_family(1800, 1900)}
    assert 1820 in labels  # b9
    assert 1848 in labels  # c1
    assert 1836 not in labels  # 4 | 1836 but 459 = 27*17 not squarefree


# -- oracle: the per-type assignments and one Kronecker call per symbol --------

_TABLES = load_tables()


def _reference_symbol(assignment, top, under):
    value = assignment[int(top[1]) - 1]
    p = prime_of(assignment[int(under[1]) - 1])
    return kronecker(value, p)


def _reference_assignments(type_name, table, factors):
    pos = [q for q in factors if q > 0]
    neg = [q for q in factors if q < 0]
    if "d4" in table:
        if table["d4"] not in factors:
            return
        rest = [q for q in neg if q != table["d4"]]
        if type_name == "II":
            if len(pos) != 2 or len(rest) != 1:
                return
            for a, b in permutations(pos, 2):
                yield (a, b, rest[0], table["d4"])
        else:  # IV
            if pos or len(rest) != 3:
                return
            for a, b, c in permutations(rest, 3):
                yield (a, b, c, table["d4"])
        return
    if -4 in factors:
        return
    if type_name == "I":
        if len(pos) != 2 or len(neg) != 2:
            return
        for head in permutations(pos, 2):
            for tail in permutations(neg, 2):
                yield head + tail
    else:  # III
        if pos:
            return
        yield from permutations(neg, 4)


def _reference_classify(d):
    """classify with the two-squares test on d itself, the assignments built
    per type and every symbol a Kronecker call of its own."""
    if d <= 0:
        raise PreconditionError(f"{d} is not positive")
    # a d that is no field discriminant raises NotFundamentalError, a
    # PreconditionError, from the factoring
    factors = factor_discriminant(d)
    if len(factors) != 4:
        raise PreconditionError(
            f"{d} has {len(factors)} prime discriminant factors, need 4"
        )
    if is_sum_of_two_squares(d):
        raise PreconditionError(f"{d} is a sum of two squares")
    four_rank = narrow_four_rank(character_matrix(factors))
    if four_rank:
        raise PreconditionError(
            f"2-class group of {d} is not (2, 2): its narrow 4-rank is "
            f"{four_rank}, need 0"
        )
    hits = []
    for type_name, table in _TABLES["types"].items():
        for assignment in _reference_assignments(type_name, table, factors):
            if any(_reference_symbol(assignment, top, under) != want
                   for top, under, want in table.get("fixed", ())):
                continue
            symbols = [_reference_symbol(assignment, top, under)
                       for top, under in table["columns"]]
            for label, row in table["rows"].items():
                if row["symbols"] == symbols:
                    hits.append((type_name, label, tuple(assignment)))
    if not hits:
        raise NoRowMatchError(
            f"{d} = {'*'.join(map(str, factors))} matches no classification row"
        )
    labels = {label for _, label, _ in hits}
    if len(labels) > 1:
        raise InternalConsistencyError(f"{d} matches several rows: {sorted(labels)}")
    type_name, label, assignment = min(hits, key=lambda h: tuple(map(abs, h[2])))
    nu = tuple(
        0 if _reference_symbol(assignment, f"d{i}", f"p{j}") == 1 else 1
        for i, j in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    )
    row = _TABLES["types"][type_name]["rows"][label]
    patterns = _TABLES["invariant_rows"].get(label)
    return CaseRecord(
        d=d,
        case_type=type_name,
        label=label,
        assignment=assignment,
        symbol_matrix=nu,
        g_type=frozenset(row["g"]),
        gplus_label=row["gplus"],
        g_order_formula=classify_mod._display(patterns["order"]) if patterns else None,
    )


def _classify_outcome(fn, d):
    try:
        return fn(d)
    except (PreconditionError, NoRowMatchError, InternalConsistencyError) as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture
def empty_memo(monkeypatch):
    """classify's signature memo, emptied for the test."""
    monkeypatch.setattr(classify_mod, "_BY_SIGNATURE", {})


@pytest.fixture
def warm_memo(empty_memo):
    """classify's signature memo, filled by a scan of other discriminants, so
    that a lookup reuses an outcome found for another d."""
    for _ in iter_family(10**6, 10**6 + 10**5):
        pass
    assert len(classify_mod._BY_SIGNATURE) > 500


def _check_below_1e5():
    for d in range(5, 10**5):
        assert _classify_outcome(classify, d) == _classify_outcome(_reference_classify, d), d


def test_classify_matches_reference_below_1e5(empty_memo):
    _check_below_1e5()


def test_classify_matches_reference_below_1e5_on_a_warm_memo(warm_memo):
    _check_below_1e5()


# the memo fixtures are set up once per test, not once per example
_MEMO_SETTINGS = settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_MEMO_SETTINGS
@given(four_factor_discriminants(below=10**9))
def test_classify_matches_reference_property(empty_memo, qs):
    d = math.prod(qs)
    assert _classify_outcome(classify, d) == _classify_outcome(_reference_classify, d)


@_MEMO_SETTINGS
@given(four_factor_discriminants(below=10**9))
def test_classify_matches_reference_property_on_a_warm_memo(warm_memo, qs):
    d = math.prod(qs)
    assert _classify_outcome(classify, d) == _classify_outcome(_reference_classify, d)


def test_search_runs_only_on_a_new_signature(empty_memo, monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_search", "_candidate_assignments", "narrow_four_rank"):
        monkeypatch.setattr(classify_mod, name, counting(name, getattr(classify_mod, name)))
    first = [_classify_outcome(classify, d) for d in range(5, 20000)]
    signatures = len(classify_mod._BY_SIGNATURE)
    assert calls["_search"] == calls["narrow_four_rank"] == signatures > 100
    searched = calls.copy()
    assert [_classify_outcome(classify, d) for d in range(5, 20000)] == first
    assert calls == searched


@settings(max_examples=60, deadline=None)
@given(four_factor_discriminants(below=10**9))
def test_classify_same_record_for_every_factor_order(qs):
    outcomes = {
        _classify_outcome(classify, _target("*".join(map(str, order))))
        for order in permutations(qs)
    }
    assert outcomes == {_classify_outcome(classify, math.prod(qs))}


# every set of four distinct primes up to 23, with each prime discriminant of 2
_SMALL_FACTOR_SETS = [
    qs for qs in combinations([-3, 5, -7, -4, 8, -8, -11, 13, 17, -19, -23], 4)
    if len({prime_of(q) for q in qs}) == 4
]


@pytest.mark.parametrize("type_name", sorted(_TABLES["types"]))
def test_candidate_assignments_match_reference(type_name):
    table = _TABLES["types"][type_name]
    for qs in _SMALL_FACTOR_SETS:
        want = set(_reference_assignments(type_name, table, qs))
        for factors in permutations(qs):
            got = {
                tuple(factors[i] for i in at)
                for at in classify_mod._candidate_assignments(table, factors)
            }
            assert got == want, (type_name, factors)


@pytest.mark.parametrize("d", [d for d, _ in PINS] + [1596, 5 * 13 * 17 * 29])
def test_classify_factors_once_and_builds_one_matrix(d, monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(arith, "factorize", counting("factorize", arith.factorize))
    for module in (arith, qform):
        monkeypatch.setattr(module, "kronecker", counting("kronecker", module.kronecker))
    monkeypatch.setattr(classify_mod, "character_matrix",
                        counting("character_matrix", character_matrix))
    _classify_outcome(classify, d)
    assert calls["factorize"] == 1
    # reciprocity: one symbol for each of the at most six odd pairs
    assert calls["kronecker"] <= 6
    # the matrix is built for the search of a new signature only: d again
    # hits the memo and is factored, but builds none
    assert calls["character_matrix"] <= 1
    calls.clear()
    _classify_outcome(classify, d)
    assert calls == {"factorize": 1}


# -- audit: every symbol signature, classified by the uncached search ----------

# the symbols between an odd prime p and the even factor depend only on
# p mod 8; one prime of each class stands for it
_CLASS_PRIME = {1: 17, 3: 3, 5: 5, 7: 7}
_EVEN_FACTORS = (-4, 8, -8)


def _audit_cases():
    """(factors, character matrix) for every factor class by position: an odd
    prime's class mod 8 or one of -4, 8, -8, with at most one even factor.
    Reciprocity makes (q_i / p_j) = (q_j / p_i) for odd q_i, q_j, with the
    sign flipped when both are negative: one free bit per odd pair.  The
    symbols against the even factor follow from the classes.  Only d > 0
    that is not a sum of two squares is kept, so some factor is negative.
    Sorting by |q| puts an even factor early in a real d; these cases drop
    that constraint and cover every position."""
    classes = list(_CLASS_PRIME) + list(_EVEN_FACTORS)
    for cls in product(classes, repeat=4):
        even = [i for i, c in enumerate(cls) if c in _EVEN_FACTORS]
        if len(even) > 1:
            continue
        factors = [
            c if c in _EVEN_FACTORS else (
                _CLASS_PRIME[c] if c % 4 == 1 else -_CLASS_PRIME[c]
            )
            for c in cls
        ]
        if math.prod(factors) < 0 or all(q > 0 for q in factors):
            continue
        odd_pairs = [
            (i, j) for i, j in combinations(range(4), 2)
            if i not in even and j not in even
        ]
        for bits in product((1, -1), repeat=len(odd_pairs)):
            mat = [[1] * 4 for _ in range(4)]
            for (i, j), bit in zip(odd_pairs, bits):
                mat[i][j] = bit
                mat[j][i] = -bit if factors[i] < 0 and factors[j] < 0 else bit
            for e in even:
                for j in set(range(4)) - {e}:
                    mat[e][j] = kronecker(factors[e], prime_of(factors[j]))
                    mat[j][e] = kronecker(factors[j], 2)
            for i in range(4):
                mat[i][i] = math.prod(mat[l][i] for l in range(4) if l != i)
            yield tuple(factors), mat


def _direct_character_matrix(qs):
    """One Kronecker symbol (q_i / p_j) per entry off the diagonal; the
    diagonal is the product of its column."""
    n = len(qs)
    mat = [[1 if i == j else kronecker(qs[i], prime_of(qs[j])) for j in range(n)]
           for i in range(n)]
    for i in range(n):
        mat[i][i] = math.prod(mat[l][i] for l in range(n) if l != i)
    return mat


def test_character_matrix_by_reciprocity_on_four_factor_discriminants():
    seen = 0
    for d in range(-10**5 + 1, 10**5):
        try:
            factors = factor_discriminant(d)
        except NotFundamentalError:
            continue
        if len(factors) == 4:
            assert character_matrix(factors) == _direct_character_matrix(factors), d
            seen += 1
    assert seen == 6463


_PRIMES_BELOW_10_6 = list(arith._primes_upto(10**6 - 1))


@st.composite
def _prime_discriminant_tuples(draw, min_size=2, max_size=5):
    """2 to 5 prime discriminants of distinct primes below 10^6, in draw
    order; small primes are drawn often enough to meet 2 and each other."""
    prime = st.one_of(st.sampled_from(_PRIMES_BELOW_10_6[:12]),
                      st.sampled_from(_PRIMES_BELOW_10_6))
    primes = draw(st.lists(prime, min_size=min_size, max_size=max_size, unique=True))
    return [draw(st.sampled_from((-4, 8, -8))) if p == 2 else p if p % 4 == 1 else -p
            for p in primes]


@settings(max_examples=400, deadline=None)
@given(_prime_discriminant_tuples())
def test_character_matrix_by_euler_criterion_on_primes_below_10_6(qs):
    assert character_matrix(qs) == _direct_character_matrix(qs), qs


@settings(max_examples=200, deadline=None)
@given(_prime_discriminant_tuples(), st.data())
def test_character_matrix_gives_0_for_a_repeated_prime(qs, data):
    odd = [i for i, q in enumerate(qs) if q % 2]
    k = data.draw(st.sampled_from(odd))
    at = data.draw(st.integers(0, len(qs)))
    qs = qs[:at] + [qs[k]] + qs[at:]
    k += k >= at
    mat = character_matrix(qs)
    assert mat == _direct_character_matrix(qs), qs
    assert mat[k][at] == mat[at][k] == mat[k][k] == mat[at][at] == 0, qs


def test_character_matrix_by_reciprocity_on_the_audit_classes():
    classes = {factors for factors, _ in _audit_cases()}
    assert len(classes) == 464
    for factors in classes:
        assert character_matrix(factors) == _direct_character_matrix(factors), factors


@settings(max_examples=400, deadline=None)
@given(_prime_discriminant_tuples(min_size=4, max_size=4))
def test_signature_from_the_factors_on_primes_below_10_6(qs):
    assert classify_mod._signature_of(qs) == \
        classify_mod._signature(qs, character_matrix(qs)), qs


def test_signature_from_the_factors_on_the_audit_classes():
    # the classes repeat primes, whose symbol is 0 either way
    for factors in {factors for factors, _ in _audit_cases()}:
        assert classify_mod._signature_of(factors) == \
            classify_mod._signature(factors, character_matrix(factors)), factors


def _whole_matrix_signature(factors, mat):
    """The memo key before the six-symbol one: the four classes, then the
    sixteen entries of the character matrix by rows."""
    classes = [-4 if q == -4 else q > 0 for q in factors]
    return (*classes, *mat[0], *mat[1], *mat[2], *mat[3])


def test_signature_splits_the_audit_as_the_whole_matrix_does():
    old_to_new, new_to_old = {}, {}
    for factors, mat in _audit_cases():
        old = _whole_matrix_signature(factors, mat)
        new = classify_mod._signature(factors, mat)
        assert len(new) == 10
        old_to_new.setdefault(old, set()).add(new)
        new_to_old.setdefault(new, set()).add(old)
    assert len(old_to_new) == len(new_to_old) == 1472
    assert all(len(keys) == 1 for keys in old_to_new.values())
    assert all(len(keys) == 1 for keys in new_to_old.values())


@pytest.fixture(scope="module")
def audit():
    """signature -> the set of search outcomes over the audit cases, and the
    number of cases."""
    outcomes = {}
    cases = 0
    for factors, mat in _audit_cases():
        cases += 1
        key = classify_mod._signature(factors, mat)
        outcomes.setdefault(key, set()).add(classify_mod._search(factors, mat))
    return outcomes, cases


def test_signature_audit_one_outcome_per_signature(audit):
    outcomes, cases = audit
    assert cases == 9984
    assert len(outcomes) == 1472
    assert all(len(found) == 1 for found in outcomes.values())
    # a row, or else the nonzero narrow 4-rank: no signature with 4-rank 0
    # misses every row (None) or hits several (their labels), so
    # NoRowMatchError and InternalConsistencyError cannot happen
    kinds = Counter(
        "row" if isinstance(outcome, classify_mod._Row) else outcome
        for found in outcomes.values() for outcome in found
    )
    assert kinds == {"row": 992, 1: 444, 2: 36}


def test_signature_audit_reaches_every_label(audit):
    outcomes, _ = audit
    labels = {
        outcome.label
        for found in outcomes.values() for outcome in found
        if isinstance(outcome, classify_mod._Row)
    }
    assert labels == {
        label for table in _TABLES["types"].values() for label in table["rows"]
    }
    assert len(labels) == 37


@pytest.mark.parametrize("lo", [5, 10**9, 10**12 - 2 * 10**4])
def test_scanned_signatures_are_in_the_audit(audit, lo, empty_memo):
    # the audit's matrices are the ones character_matrix builds for real d
    outcomes, _ = audit
    for _ in iter_family(lo, lo + 2 * 10**4):
        pass
    assert classify_mod._BY_SIGNATURE
    for key, outcome in classify_mod._BY_SIGNATURE.items():
        assert outcomes[key] == {outcome}, key


def _sortable(factors, mat) -> bool:
    """Whether factors sorted by |q| can have this audit case's signature.
    The factors before an even one have smaller |q|, so they are among
    -3, 5 and -7, the only primes of their classes mod 8 below 8; these
    are the audit's own class primes, so the factors must be distinct and
    their symbols must be the true ones."""
    even = [i for i, q in enumerate(factors) if q in _EVEN_FACTORS]
    if not even:
        return True
    small = factors[:even[0]]
    return (all(abs(q) < abs(factors[even[0]]) for q in small)
            and len(set(small)) == len(small)
            and all(mat[i][j] == kronecker(small[i], prime_of(small[j]))
                    for i, j in permutations(range(len(small)), 2)))


def test_one_witness_per_sortable_signature(audit, empty_memo):
    outcomes, _ = audit
    sortable = {classify_mod._signature(factors, mat)
                for factors, mat in _audit_cases() if _sortable(factors, mat)}
    path = Path(__file__).resolve().parent / "data" / "signature_witnesses.json"
    witnesses = json.loads(path.read_text())["witnesses"]
    witnessed = set()
    for d in witnesses:
        assert 0 < d < 2 * 10**6
        factors = factor_discriminant(d)
        key = classify_mod._signature(factors, character_matrix(factors))
        (expected,) = outcomes[key]
        if isinstance(expected, classify_mod._Row):
            rec = classify(d)
            assert (rec.label, rec.assignment) == \
                (expected.label, tuple(factors[i] for i in expected.at)), d
        else:
            with pytest.raises(PreconditionError, match=f"4-rank is {expected}, need 0$"):
                classify(d)
        witnessed.add(key)
    assert len(witnesses) == len(witnessed) == 768
    assert witnessed == sortable
