"""Acceptance gate: one check per top-level guarantee, one verdict line each.

Each criterion collects its failures, prints a single PASS/FAIL line, and
then asserts. Criterion 1 carries the full list of pinned example
classifications, including one pin that the symbol tables provably cannot
satisfy (see the failure message); it is kept verbatim and allowed to fail
rather than weakening the check.
"""

import math
import time
from fractions import Fraction

from analytic import analytic_class_number, log_fundamental_unit
from quadtower.arith import (
    discriminant_of,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
)
from quadtower.classify import (
    Verdict,
    classify,
    iter_family,
    tower_verdict,
    verify_invariant_row,
)
from quadtower.conic import solve_conic, solve_h8
from quadtower.formulas import AmbiguousInput, MainChainResult, ambiguous_number, main_chain
from quadtower.group2 import (
    abelian_invariants,
    build_64_150,
    check_derived_collapse,
    check_metabelian_descent,
    check_power_filtration,
    collapse_library,
    derived_subgroup,
)
from quadtower.qform import class_group, genus_positivity, two_sylow
from quadtower.units import (
    delta_invariant,
    fundamental_unit,
    sqrt_unit_decomposition,
)


def _verdict_line(number: int, title: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {title}")
    assert not failures, f"criterion {number} ({title}): " + " | ".join(failures)


# criterion 1 ------------------------------------------------------------------

CLASSIFICATION_PINS = [
    ((8, 17, -3, -47), "a1"),
    ((8, 113, -3, -7), "a2"),
    ((8, 5, -7, -79), "a3"),
    ((8, 5, -31, -7), "a4"),
    ((41, 8, -79, -3), "a5"),
    ((8, 41, -3, -7), "a6"),
    ((5, 17, -11, -31), "a8"),
    ((13, 5, -131, -7), "a9"),
    ((61, 5, -11, -4), "b5"),
    ((41, 5, -7, -4), "b6"),
    ((29, 5, -3, -4), "b1"),
    ((17, 5, -19, -4), "b8"),
    ((401, 5, -3, -4), "b6"),
    ((-7, -3, -43, -31), "c2"),
    ((-3, -8, -11, -23), "c3"),
    ((-7, -3, -47, -4), "d5"),
    ((-11, -43, -7, -4), "d8"),
    ((-7, -31, -23, -4), "d1"),
]


def test_criterion_1_pinned_classifications():
    failures = []
    for factors, expected in CLASSIFICATION_PINS:
        d = math.prod(factors)
        start = time.perf_counter()
        try:
            rec = classify(d)
        except Exception as exc:
            failures.append(f"{d}: raised {exc!r}")
            continue
        elapsed = time.perf_counter() - start
        if rec.label != expected:
            expr = "*".join(str(f) for f in factors)
            note = ""
            if d == 77736:
                note = (
                    " [77736 and 6888 carry identical Kronecker symbol data "
                    "(79 <-> 7 twins) and identical delta patterns; both "
                    "satisfy the a6 row, so no classifier consistent with "
                    "the symbol tables can split this pair]"
                )
            failures.append(f"{d} ({expr}): expected {expected}, got {rec.label}{note}")
        if elapsed >= 1.0:
            failures.append(f"{d}: took {elapsed:.2f}s, budget 1s")
    _verdict_line(1, "pinned example classifications", failures)


# criterion 2 ------------------------------------------------------------------


def test_criterion_2_conic_identities():
    failures = []
    identities = [
        (5 * 5, 8 * 1 + 17 * 1, "(5,1,1) on (8,17)"),
        (9 * 9, 61 * 1 + 5 * 4, "(9,1,2) on (61,5)"),
        (383 * 383, -3 * 1 + 217 * 26 * 26, "(383,1,26) on (-3,217)"),
        (16 * 13 - 225 * 5, -917, "(4,15,1) on (13,5,917)"),
    ]
    for lhs, rhs, label in identities:
        if lhs != rhs:
            failures.append(f"{label}: {lhs} != {rhs}")
    for d1, d2 in ((8, 17), (61, 5), (-3, 217)):
        start = time.perf_counter()
        try:
            sol = solve_conic(d1, d2)
        except Exception as exc:
            failures.append(f"solve_conic({d1},{d2}) raised {exc!r}")
            continue
        elapsed = time.perf_counter() - start
        if sol.a * sol.a != d1 * sol.b * sol.b + d2 * sol.c * sol.c:
            failures.append(f"solve_conic({d1},{d2}) -> {sol} fails the equation")
        if math.gcd(math.gcd(sol.a, sol.b), sol.c) != 1:
            failures.append(f"solve_conic({d1},{d2}) -> {sol} not primitive")
        if elapsed >= 1.0:
            failures.append(f"solve_conic({d1},{d2}) took {elapsed:.2f}s")
    mu = solve_h8(13, 5, 917)
    if (mu.x1, mu.x2, mu.x3) != (4, 15, 1):
        failures.append(f"solve_h8(13,5,917) -> {(mu.x1, mu.x2, mu.x3)}")
    _verdict_line(2, "conic and splitting-element identities", failures)


# criterion 3 ------------------------------------------------------------------

VERDICT_PINS = [
    (19176, None, Verdict.AT_LEAST_3),
    (1820, None, Verdict.EXACTLY_2),
    (27993, None, Verdict.AT_LEAST_3),
    (3948, None, Verdict.AT_LEAST_3),
    (13244, None, Verdict.AT_LEAST_3),
    (6072, (2, 4, 4), Verdict.EXACTLY_2_BY_8RANK),
    (19964, (2, 4, 8), Verdict.UNKNOWN_64_150),
]


def test_criterion_3_tower_verdicts():
    failures = []
    for d, external, expected in VERDICT_PINS:
        verdict = tower_verdict(classify(d), external_octic_cl2=external)
        if verdict.verdict is not expected:
            failures.append(f"{d}: expected {expected.value}, got {verdict.verdict.value}")
    _verdict_line(3, "narrow tower length verdicts", failures)


# criterion 4 ------------------------------------------------------------------

ROW_FIELDS = [(19176, "a1"), (59605, "a9"), (13420, "b5"), (5740, "b6")]


def test_criterion_4_invariant_row_verification():
    failures = []
    for d, label in ROW_FIELDS:
        start = time.perf_counter()
        report = verify_invariant_row(d)
        elapsed = time.perf_counter() - start
        if report.label != label:
            failures.append(f"{d}: classified {report.label}, wanted {label}")
        for entry in report.mismatches():
            failures.append(
                f"{d} column {entry.column}: expected {entry.expected}, "
                f"computed {entry.computed}"
            )
        if elapsed >= 30.0:
            failures.append(f"{d}: took {elapsed:.1f}s, budget 30s")
    _verdict_line(4, "invariant-table row verification", failures)


# criterion 5 ------------------------------------------------------------------


def test_criterion_5_class_group_oracle():
    failures = []
    for d in range(-10000, 10001):
        if d == 0 or not is_fundamental_discriminant(d):
            continue
        g = class_group(d, narrow=False)
        if d < 0:
            h = analytic_class_number(d)
        else:
            h = analytic_class_number(d, log_fundamental_unit(fundamental_unit(d)))
        if g.h != h:
            failures.append(f"d={d}: forms give {g.h}, oracle gives {h}")
            if len(failures) > 5:
                break
    if class_group(-23, narrow=False).elementary_divisors != [3]:
        failures.append("structure of -23 is not C3")
    if class_group(40, narrow=False).elementary_divisors != [2]:
        failures.append("structure of 40 is not C2")
    if two_sylow(class_group(19176, narrow=False)) != [2, 2]:
        failures.append("2-Sylow of 19176 is not (2, 2)")
    _verdict_line(5, "class numbers match the analytic oracle to 10^4", failures)


# criterion 6 ------------------------------------------------------------------


def _primes_3_mod_4(bound):
    return [p for p in range(3, bound, 4) if is_prime(p)]


def test_criterion_6_unit_sign_and_genus_suite():
    failures = []
    for p in _primes_3_mod_4(500):
        dec = sqrt_unit_decomposition(fundamental_unit(discriminant_of(p)))
        if dec.sign_identity(leading=2 * p) != -kronecker(-p, 2):
            failures.append(f"sign identity fails at radicand {p}")
    pairs = _primes_3_mod_4(200)
    for i, p in enumerate(pairs):
        for q in pairs[i + 1:]:
            dec = sqrt_unit_decomposition(fundamental_unit(discriminant_of(p * q)))
            if dec.sign_identity(leading=p) != kronecker(p, q):
                failures.append(f"sign identity fails at radicand {p * q}")
    for p in pairs:
        dec = sqrt_unit_decomposition(fundamental_unit(discriminant_of(2 * p)))
        if dec.sign_identity(leading=2) != kronecker(2, p):
            failures.append(f"sign identity fails at radicand {2 * p}")

    swept = 0
    for rec in iter_family(5, 50000):
        if rec.label not in ("c2", "d5", "d8"):
            continue
        primes = rec.primes
        if rec.label == "c2":
            expected = primes[0] * primes[2] * primes[3]
        else:
            expected = primes[0] * primes[1]
        delta = int(delta_invariant(fundamental_unit(rec.d)))
        if delta != expected:
            failures.append(f"{rec.d} ({rec.label}): delta {delta} != {expected}")
        elif not genus_positivity(rec.d, delta):
            failures.append(f"{rec.d} ({rec.label}): genus positivity fails")
        swept += 1
    if swept < 30:
        failures.append(f"only {swept} all-negative fields swept below 50000")
    _verdict_line(6, "unit decomposition and genus positivity sweeps", failures)


# criterion 7 ------------------------------------------------------------------


def test_criterion_7_group_suite():
    failures = []
    start = time.perf_counter()
    T = build_64_150().table_group()
    if T.order != 64:
        failures.append(f"order {T.order} != 64")
    gp = derived_subgroup(T)
    if len(gp) != 8 or abelian_invariants(T, gp) != (2, 2, 2):
        failures.append(f"derived subgroup is not elementary of order 8: {len(gp)}")
    if not check_power_filtration(T).holds:
        failures.append("power filtration chain fails")
    descent = check_metabelian_descent(T)
    if not (descent.holds and descent.invariants == (2, 2, 2)):
        failures.append(f"metabelian descent fails: {descent}")
    library = collapse_library()
    if len(library) < 10:
        failures.append(f"library has only {len(library)} groups")
    for name, g in library:
        if g.order > 64:
            failures.append(f"{name} has order {g.order} > 64")
        report = check_derived_collapse(g)
        if report.counterexample:
            failures.append(f"counterexample in {name}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"suite took {elapsed:.1f}s, budget 10s")
    _verdict_line(7, "order-64 group model and collapse sweep", failures)


# criterion 8 ------------------------------------------------------------------


def test_criterion_8_formula_calculators():
    failures = []
    ambiguous = [
        (AmbiguousInput(1, 0, 1), 1),
        (AmbiguousInput(4, 2, 4), 8),
        (AmbiguousInput(1, 2, 4), 1),
    ]
    for inp, expected in ambiguous:
        got = ambiguous_number(inp)
        if got != expected:
            failures.append(f"ambiguous_number({inp}) = {got} != {expected}")
    if main_chain("Qg", 2) != MainChainResult(Fraction(1, 2), "inconclusive"):
        failures.append(f"main_chain(Qg, 2) = {main_chain('Qg', 2)}")
    if main_chain("D", 4) != MainChainResult(Fraction(2), "length >= 3"):
        failures.append(f"main_chain(D, 4) = {main_chain('D', 4)}")
    _verdict_line(8, "ambiguous-number and chain-ratio calculators", failures)
