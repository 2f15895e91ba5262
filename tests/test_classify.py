"""Case classification, tower verdicts, and invariant-row verification."""

import time
from collections import Counter

import pytest

from quadtower import classify as classify_mod
from quadtower.arith import BoundExceededError
from quadtower.classify import (
    InternalConsistencyError,
    NoRowMatchError,
    PreconditionError,
    RowComputationError,
    RowPatternsUnavailableError,
    Verdict,
    classify,
    h8_predicate,
    iter_family,
    load_tables,
    prime_of,
    tower_verdict,
    verify_invariant_row,
)

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
        from quadtower.arith import kronecker

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
    with pytest.raises(PreconditionError, match=r"\[2, 4\]"):
        classify(1596)  # 2-class group C2 x C4


def test_h8_predicate():
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


def test_invariant_row_two_class_number_failure_names_column(monkeypatch):
    def exhausted(disc):
        raise BoundExceededError(f"form bound exceeded at {disc}")

    monkeypatch.setattr(classify_mod, "two_class_number", exhausted)
    with pytest.raises(RowComputationError, match=r"^d = 19176, column h2_1: "):
        verify_invariant_row(19176)


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
