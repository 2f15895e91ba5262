"""Tests for fundamental units, square-root decompositions and sign tables."""

import functools
import hashlib
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadtower import arith, units
from quadtower.arith import (
    BoundExceededError,
    discriminant_of,
    is_fundamental_discriminant,
    is_prime,
    is_square,
    kronecker,
    radicand,
    squarefree_kernel,
)
from quadtower.classify import classify, verify_invariant_row
from quadtower.qform import genus_positivity, two_class_number
from quadtower.units import (
    CHARACTERS,
    CharacterTable,
    NormMinusOneError,
    _Characters,
    _character_vector,
    _characters,
    _MultiQuadField,
    _radical_root,
    _roots,
    _saturate,
    _unit_basis,
    QuadUnit,
    delta_invariant,
    fundamental_unit,
    kubota_index,
    multiquadratic_h2,
    sqrt_unit_decomposition,
)


def primes_3_mod_4(bound):
    return [p for p in range(3, bound, 4) if is_prime(p)]


# ---------------------------------------------------------------------------
# fundamental units


@pytest.mark.parametrize(
    "d, x, y, norm",
    [
        (5, 1, 1, -1),     # (1+sqrt(5))/2
        (8, 2, 1, -1),     # 1+sqrt(2)
        (12, 4, 1, 1),     # 2+sqrt(3)
        (13, 3, 1, -1),
        (21, 5, 1, 1),
        (40, 6, 1, -1),    # 3+sqrt(10)
        (28, 16, 3, 1),    # 8+3*sqrt(7)
    ],
)
def test_fundamental_unit_pins(d, x, y, norm):
    u = fundamental_unit(d)
    assert (u.x, u.y, u.norm) == (x, y, norm)


def test_fundamental_unit_rejects_bad_discriminants():
    for d in (-8, 0, 5 * 4, 45, 7):
        with pytest.raises(ValueError):
            fundamental_unit(d)
    with pytest.raises(BoundExceededError):
        fundamental_unit(19176, max_steps=2)


def _reference_fundamental_unit(d, max_steps=10**6):
    """(x, y, norm, steps) by the earlier continued fraction: it stores every
    complete quotient with its convergents, stops at the first repeat, and
    inverts the automorph matrix of the period.  steps is the least
    max_steps it needs; past max_steps it raises BoundExceededError."""
    m = radicand(d)
    p_cur, q_cur = (1, 2) if m % 4 == 1 else (0, 1)
    sq = math.isqrt(m)
    pm1, pm2, qm1, qm2 = 1, 0, 0, 1
    seen = {}
    step = 0
    while step <= max_steps:
        key = (p_cur, q_cur)
        if key in seen:
            k, ak11, ak12, ak21, ak22 = seen[key]
            det_a = ak11 * ak22 - ak12 * ak21
            # S = B * A^(-1) with A^(-1) = det(A) * adjugate(A)
            s21 = det_a * (qm1 * ak22 - qm2 * ak21)
            s22 = det_a * (qm2 * ak11 - qm1 * ak12)
            norm = -1 if (step - k) % 2 else 1
            x = s21 + 2 * s22 if m % 4 == 1 else 2 * s22
            return abs(x), abs(s21), norm, step
        seen[key] = (step, pm1, pm2, qm1, qm2)
        a = (p_cur + sq) // q_cur
        pm1, pm2 = a * pm1 + pm2, pm1
        qm1, qm2 = a * qm1 + qm2, qm1
        p_cur = a * q_cur - p_cur
        q_cur = (m - p_cur * p_cur) // q_cur
        step += 1
    raise BoundExceededError(f"{d} exceeded {max_steps} steps")


def test_fundamental_unit_matches_reference_and_its_step_bound():
    checked = 0
    for d in range(5, 30001):
        if not is_fundamental_discriminant(d):
            continue
        x, y, norm, steps = _reference_fundamental_unit(d)
        with pytest.raises(BoundExceededError):
            _reference_fundamental_unit(d, steps - 1)
        u = fundamental_unit(d, steps)
        assert (u.x, u.y, u.norm) == (x, y, norm), d
        with pytest.raises(BoundExceededError, match=f"discriminant {d} exceeded"):
            fundamental_unit(d, steps - 1)
        checked += 1
    assert checked == 9118


def test_fundamental_unit_keeps_constant_state():
    # x has 4315 digits; a table of every step's convergents peaked at 18 MB
    tracemalloc.start()
    try:
        u = fundamental_unit(2287489453)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.norm == 1 and u.x.bit_length() > 14000
    assert peak < 2**20


def test_unit_identity_and_minimality_up_to_2000():
    # brute Pell check: no smaller y solves x^2 - d y^2 = +-4
    checked = 0
    for d in range(5, 2001):
        if not is_fundamental_discriminant(d):
            continue
        u = fundamental_unit(d)
        assert u.x * u.x - d * u.y * u.y == 4 * u.norm
        if u.y <= 400:
            for yy in range(1, u.y):
                t = d * yy * yy
                assert not is_square(t + 4) and not is_square(t - 4)
            checked += 1
    assert checked > 250


def test_norm_signs_follow_classical_splitting():
    # over Q(sqrt(p)): norm -1 iff p = 2 or p = 1 mod 4
    for p in [q for q in range(2, 500) if is_prime(q)]:
        u = fundamental_unit(discriminant_of(p))
        assert u.norm == (-1 if p == 2 or p % 4 == 1 else 1)
    # composite radicands with every prime 3 mod 4 force norm +1
    assert fundamental_unit(discriminant_of(21)).norm == 1
    assert fundamental_unit(discriminant_of(1333)).norm == 1
    assert fundamental_unit(discriminant_of(65)).norm == -1
    assert fundamental_unit(discriminant_of(34)).norm == 1


def test_unit_rejects_fields_that_are_no_unit_above_one():
    # a raise, not an assert, so the check holds under python -O too
    with pytest.raises(ValueError, match=r"QuadUnit\(d=5, x=3, y=2, norm=1\)"):
        QuadUnit(5, 3, 2, 1)  # 9 - 5*4 != 4
    with pytest.raises(ValueError, match=r"QuadUnit\(d=5, x=-1, y=1, norm=-1\)"):
        QuadUnit(5, -1, 1, -1)  # a unit of norm -1, but below 1


def test_coords_over_radicand():
    u = fundamental_unit(12)
    assert u.m == 3
    assert u.coords_over_radicand() == (4, 2)  # (4 + 2*sqrt(3))/2 = 2+sqrt(3)
    v = fundamental_unit(21)
    assert v.coords_over_radicand() == (5, 1)


# ---------------------------------------------------------------------------
# delta invariant and sqrt decompositions


def test_delta_invariant_examples():
    assert type(delta_invariant(fundamental_unit(12))) is int
    assert int(delta_invariant(fundamental_unit(12))) == 6
    assert int(delta_invariant(fundamental_unit(21))) == 7
    assert int(delta_invariant(fundamental_unit(28))) == 2
    with pytest.raises(NormMinusOneError):
        delta_invariant(fundamental_unit(5))


def test_sqrt_decomposition_examples():
    # sqrt(2+sqrt(3)) = (sqrt(6)+sqrt(2))/2
    dec = sqrt_unit_decomposition(fundamental_unit(12))
    assert (dec.a, dec.b, dec.basis) == (1, 1, (6, 2))
    assert dec.sign_identity() == 1
    assert dec.sign_identity(leading=2) == -1
    with pytest.raises(ValueError):
        dec.sign_identity(leading=5)

    # sqrt((5+sqrt(21))/2) = (sqrt(7)+sqrt(3))/2
    dec21 = sqrt_unit_decomposition(fundamental_unit(21))
    assert (dec21.a, dec21.b, dec21.basis) == (1, 1, (7, 3))
    assert dec21.sign_identity(leading=3) == -1 == kronecker(3, 7)

    with pytest.raises(NormMinusOneError):
        sqrt_unit_decomposition(fundamental_unit(8))


def test_sqrt_decomposition_of_every_norm_plus_one_unit_below_2e4():
    # _unit_basis decomposes every norm +1 subfield unit for the unit index,
    # where a DecompositionError would stop verify_invariant_row; squaring
    # (a sqrt(m1) + b sqrt(m2))/2 must give (x + y' sqrt(m))/2 back
    parities = Counter()
    for d in range(5, 20000):
        if not is_fundamental_discriminant(d):
            continue
        u = fundamental_unit(d)
        if u.norm == 1:
            dec = sqrt_unit_decomposition(u)
            x, ym = u.coords_over_radicand()
            assert dec.a * dec.a * dec.m1 + dec.b * dec.b * dec.m2 == 2 * x
            assert (dec.a * dec.b) ** 2 * dec.m1 * dec.m2 == ym * ym * u.m
            # delta against its definition, the squarefree kernel of
            # N(1 + eps) = x + 2, checked by factoring and isqrt, not by a gcd
            delta = delta_invariant(u)
            assert delta == dec.m1 == squarefree_kernel(delta)
            assert (u.x + 2) % delta == 0 and is_square((u.x + 2) // delta)
            parities[u.m % 2 == 0, delta % 2 == 0] += 1
    assert sum(parities.values()) == 4216
    # the factor 2 of delta follows v2(x + 2), not the parity of m: every
    # (m even?, delta even?) case occurs, d = 12 (m odd, delta even) and
    # d = 24 (m even, delta odd) first among the mixed ones
    assert parities == {(False, False): 2623, (False, True): 770,
                        (True, False): 420, (True, True): 403}


def test_sqrt_decomposition_is_built_once_per_unit(monkeypatch):
    # _sqrt looks SqrtUnitDecomposition up at call time, so every build is
    # counted, under the unit's radicand m: m1 m2 is m times a square
    original = units.SqrtUnitDecomposition
    calls = []

    def counting(a, b, basis):
        calls.append(squarefree_kernel(basis[0] * basis[1]))
        return original(a, b, basis)

    monkeypatch.setattr(units, "SqrtUnitDecomposition", counting)
    u = fundamental_unit(19176)
    dec = sqrt_unit_decomposition(u)
    assert sqrt_unit_decomposition(u) is dec
    assert delta_invariant(u) == dec.m1
    assert calls == [u.m]
    # kept on this object only: an equal unit builds its own, and the
    # cached root changes neither equality, hash nor repr
    twin = fundamental_unit(19176)
    assert (twin, hash(twin), repr(twin)) == (u, hash(u), repr(u))
    assert sqrt_unit_decomposition(twin) == dec
    assert calls == [u.m] * 2
    with pytest.raises(NormMinusOneError):
        sqrt_unit_decomposition(fundamental_unit(8))


def test_sqrt_decomposition_of_a_unit_square():
    # the square of the norm -1 unit of Q(sqrt(5)) decomposes over (5, 1)
    sq = QuadUnit(5, 3, 1, 1)
    dec = sqrt_unit_decomposition(sq)
    assert dec.basis == (5, 1)
    assert (dec.a, dec.b) == (1, 1)


def test_sign_identity_prime_pairs_3_mod_4():
    # units of Q(sqrt(pq)), p,q = 3 mod 4: the leading radical of sqrt(eps)
    # is the prime towards which the Legendre symbol points
    ps = primes_3_mod_4(200)
    for i, p in enumerate(ps):
        for q in ps[i + 1:]:
            dec = sqrt_unit_decomposition(fundamental_unit(discriminant_of(p * q)))
            assert set(dec.basis) == {p, q}
            s = dec.sign_identity(leading=p)
            assert s == kronecker(p, q) == -kronecker(q, p)


def test_sign_identity_radicand_2p():
    # units of Q(sqrt(2p)), p = 3 mod 4: sqrt(eps) = a sqrt(2) + b sqrt(p)
    for p in primes_3_mod_4(200):
        dec = sqrt_unit_decomposition(fundamental_unit(discriminant_of(2 * p)))
        assert set(dec.basis) == {2, p}
        assert dec.a % 2 == 0 and dec.b % 2 == 0
        assert dec.sign_identity(leading=2) == kronecker(2, p) \
            == kronecker(-p, 2)


def test_sign_identity_radicand_p():
    # units of Q(sqrt(p)), p = 3 mod 4: sqrt(eps) = (a sqrt(2p) + b sqrt(2))/2
    for p in primes_3_mod_4(500):
        dec = sqrt_unit_decomposition(fundamental_unit(discriminant_of(p)))
        assert set(dec.basis) == {2 * p, 2}
        assert dec.a % 2 == 1 and dec.b % 2 == 1
        assert dec.sign_identity(leading=2 * p) == -kronecker(-p, 2)


# ---------------------------------------------------------------------------
# genus positivity of delta


def test_unit_genus_positivity_instance_27993():
    # all-negative factorization without -4: delta(eps) = p1*p3*p4
    u = fundamental_unit(discriminant_of(27993))
    assert int(delta_invariant(u)) == 7 * 43 * 31
    dec = sqrt_unit_decomposition(u)
    assert set(dec.basis) == {3, 7 * 43 * 31}
    assert dec.sign_identity(leading=3) == -1
    assert genus_positivity(27993, 7 * 43 * 31)


def test_unit_genus_positivity_instance_3948():
    # all-negative factorization with -4: d = (-7)(-3)(-47)(-4),
    # radicand 987, delta(eps) = p1*p2 = 21
    u = fundamental_unit(discriminant_of(987))
    assert int(delta_invariant(u)) == 21
    dec = sqrt_unit_decomposition(u)
    assert set(dec.basis) == {47, 21}
    assert dec.sign_identity(leading=47) == -1
    assert genus_positivity(3948, 21)


# ---------------------------------------------------------------------------
# unit indices of multiquadratic fields


def test_kubota_index_quartic():
    # Q(sqrt(2), sqrt(5)) = Q(zeta_20)^+ has h = 1; with h(8)=h(5)=h(40)=1
    # the quartic class number formula h = (q/4) h1 h2 h3 forces q = 2
    assert kubota_index(2, 5) == 2
    # quartic subfield k(sqrt(8)) of the genus field of d = 19176
    assert kubota_index(8, 19176) == 2
    assert kubota_index(145, 7) == 1
    with pytest.raises(ValueError):
        kubota_index(-3, 5)
    with pytest.raises(ValueError):
        kubota_index(4, 5)
    # with a table, the radicands are K's kernels as they stand
    table = CharacterTable([2, 5, 3])
    assert kubota_index(2, 5, table=table) == 2
    assert kubota_index(10, 3, table=table) == kubota_index(10, 3)
    for radicands in ((8, 5), (1, 5), (7, 5)):
        with pytest.raises(ValueError, match="do not all lie in"):
            kubota_index(*radicands, table=table)


def test_character_table_calls_unit_only_while_it_is_built(monkeypatch):
    calls = Counter()

    def unit(disc):
        calls[disc] += 1
        return units.fundamental_unit(disc)

    table = CharacterTable([2, 5, 3], unit)
    # once for each of the 7 quadratic subfields, one per nonzero mask
    assert calls == Counter({discriminant_of(m): 1 for m in table.field.kernel[1:]})
    radicands = ((2, 5), (10, 3), (2, 5, 3))
    expected = [kubota_index(*gens) for gens in radicands]

    def spy(disc, *args, **kwargs):
        raise AssertionError(f"fundamental_unit({disc}) called after the table was built")

    # the table's unit reaches fundamental_unit through this module too
    monkeypatch.setattr(units, "fundamental_unit", spy)
    assert [kubota_index(*gens, table=table) for gens in radicands] == expected
    assert sum(calls.values()) == 7
    with pytest.raises(TypeError):
        kubota_index(2, 5, unit=fundamental_unit)


def test_kubota_index_feeds_quartic_class_numbers():
    # h2 of Q(sqrt(2), sqrt(4794)) from its three quadratic subfields
    q = kubota_index(8, 19176)
    h2s = [two_class_number(discriminant_of(m)) for m in (2, 4794, 2397)]
    assert multiquadratic_h2(h2s, q) == 4


def test_kubota_index_octic_genus_field_27993():
    # the seven quadratic subfields of the genus field Q(sqrt(217),
    # sqrt(93), sqrt(1333)); all unit products acquire square roots
    q = kubota_index(217, 93, 1333)
    assert q == 2**7
    # indices below the maximum, pinned from the fixed-point search that the
    # exact square root replaced
    assert kubota_index(5, 29, 7) == 16
    assert kubota_index(13, 29, 7) == 32
    rads = (21, 93, 129, 217, 301, 1333, 27993)
    h2s = [two_class_number(discriminant_of(m)) for m in rads]
    assert h2s[-1] == 4
    assert multiquadratic_h2(h2s, q) == 1


RADICANDS = [m for m in range(2, 60) if squarefree_kernel(m) == m]


def _element(fractions):
    """The field element (coeffs, den) with the given rational coefficients."""
    den = math.lcm(*(f.denominator for f in fractions))
    return [int(f * den) for f in fractions], den


def _fractions(u):
    coeffs, den = u
    return [Fraction(c, den) for c in coeffs]


def _neg(u):
    return [-c for c in u[0]], u[1]


def _assert_lowest_terms(u):
    coeffs, den = u
    assert den > 0 and math.gcd(den, *coeffs) == 1


def _fraction_mul(gens, u, v):
    """u * v in Fraction arithmetic, from sqrt(m_S) sqrt(m_T) = w sqrt(m_{S ^ T})
    with w the product of the m_i for i in S & T."""
    out = [Fraction(0)] * len(u[0])
    for s, a in enumerate(_fractions(u)):
        for t, b in enumerate(_fractions(v)):
            w = math.prod(m for i, m in enumerate(gens) if (s & t) >> i & 1)
            out[s ^ t] += a * b * w
    return out


@st.composite
def field_elements(draw, count=1):
    """An independent set of 1-3 radicands and `count` nonzero elements of
    its field, with coefficients c/den for |c| <= 6 and den <= 6."""
    gens = draw(st.lists(st.sampled_from(RADICANDS), min_size=1, max_size=3))
    try:
        field = _MultiQuadField(gens)
    except ValueError:
        assume(False)
    elements = []
    for _ in range(count):
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=len(field.w),
                               max_size=len(field.w)))
        assume(any(coeffs))
        den = draw(st.integers(1, 6))
        elements.append(_element([Fraction(c, den) for c in coeffs]))
    return (gens, field, *elements)


@settings(deadline=None)
@given(field_elements(count=2))
def test_mul_matches_fraction_product(case):
    gens, field, u, v = case
    product = field.mul(u, v)
    _assert_lowest_terms(product)
    assert _fractions(product) == _fraction_mul(gens, u, v)
    zero = field.mul(u, ([0] * len(field.w), 1))
    assert zero == ([0] * len(field.w), 1)


@settings(deadline=None)
@given(field_elements())
def test_exact_sqrt_and_sign(case):
    gens, field, u = case
    square = field.mul(u, u)
    root = field.sqrt(square)
    _assert_lowest_terms(root)
    assert root in (u, _neg(u))
    p = next(p for p in range(2, 100) if is_prime(p) and all(m % p for m in gens))
    one = [1] + [0] * (len(field.w) - 1)
    for scale in (([p] + one[1:], 1), (one, p)):
        assert field.sqrt(field.mul(scale, square)) is None
    assert field.sign(square) == 1
    assert field.sign(_neg(square)) == -1
    # floating-point oracle for the sign of u itself, away from zero
    value = sum(c * math.prod(math.sqrt(m) for i, m in enumerate(gens) if s >> i & 1)
                for s, c in enumerate(_fractions(u)))
    if abs(value) > 1e-6:
        assert field.sign(u) == (1 if value > 0 else -1)


def _reference_sqrt(field, eta):
    """A square root of eta in field, or None, by the earlier descent: with
    n a root of the relative norm a^2 - m b^2, x^2 = (a + n)/2 and
    m y^2 = (a - n)/2 are two more roots in the subfield, for each sign of
    n, and b = 2xy picks the sign of y."""
    coeffs, den = eta
    if len(coeffs) == 1:
        c = coeffs[0]
        if c < 0:
            return None
        num, root = math.isqrt(c), math.isqrt(den)
        if num * num != c or root * root != den:
            return None
        return [num], root
    a, b, m = field._split(coeffs)
    n = _reference_sqrt(field, units._lowest_terms(field._relative_norm(a, b, m), den * den))
    if n is None:
        return None
    nc, nd = n
    den_n = den * nd
    a = [c * nd for c in a]
    n = [c * den for c in nc]
    for n in (n, [-c for c in n]):
        x = _reference_sqrt(field, units._lowest_terms([c + d for c, d in zip(a, n)], 2 * den_n))
        if x is None:
            continue
        y = _reference_sqrt(field, units._lowest_terms([c - d for c, d in zip(a, n)],
                                                       2 * m * den_n))
        if y is None:
            continue
        xy2 = [2 * den * c for c in field._mul(x[0], y[0])]
        bxy = [c * x[1] * y[1] for c in b]
        if xy2 == bxy or xy2 == [-c for c in bxy]:
            lcm = math.lcm(x[1], y[1])
            sy = lcm // y[1] if xy2 == bxy else -lcm // y[1]
            return [c * (lcm // x[1]) for c in x[0]] + [c * sy for c in y[0]], lcm
    return None


# sqrt(2) +- sqrt(3) and the pure radicals sqrt(2), sqrt(6): the root of
# 2(a + n) in Q(sqrt 2) is 2 sqrt(2) for (sqrt(2) + sqrt(3))^2, so a descent
# level meets a + n = 0, and the square of a pure radical meets it at the top
PURE_RADICAL_CASES = [([2, 3], _MultiQuadField([2, 3]), (coeffs, 1))
                      for coeffs in ([0, 1, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 1, -1, 0])]


@settings(deadline=None)
@given(field_elements())
@example(PURE_RADICAL_CASES[0])
@example(PURE_RADICAL_CASES[1])
@example(PURE_RADICAL_CASES[2])
@example(PURE_RADICAL_CASES[3])
def test_sqrt_matches_the_two_root_descent(case):
    # on squares and on elements that are mostly no squares, the one-root
    # descent and the earlier two-root one find a root for the same
    # elements, the same one up to sign
    _, field, u = case
    square = field.mul(u, u)
    assert field.sqrt(square) in (u, _neg(u))
    for eta in (square, u, field.mul(u, ([2] + [0] * (len(field.w) - 1), 1))):
        root, reference = field.sqrt(eta), _reference_sqrt(field, eta)
        assert (root is None) == (reference is None)
        if root is not None:
            _assert_lowest_terms(root)
            assert root in (reference, _neg(reference))
            assert field.mul(root, root) == eta


def test_sqrt_takes_the_sign_of_y_from_b():
    # On Q(sqrt 2) the root is x + y sqrt(2) with x > 0 and y = b/(2x), so
    # y has the sign of b.  On Q(sqrt 2, sqrt 3) the root s of 2(a + n)
    # comes out positive, so the sqrt(3) half of (eta + n)/s has the sign
    # of b.
    field = _MultiQuadField([2])
    assert field.sqrt(([3, -2], 1)) == ([1, -1], 1)  # (1 - sqrt 2)^2
    assert field.sqrt(([3, -2], 4)) == ([1, -1], 2)
    assert field.sqrt(([3, 2], 1)) == ([1, 1], 1)
    field = _MultiQuadField([2, 3])
    assert field.sqrt(([5, 0, 0, -2], 1)) == ([0, 1, -1, 0], 1)  # (sqrt 2 - sqrt 3)^2
    assert field.sqrt(([5, 0, 0, 2], 1)) == ([0, 1, 1, 0], 1)


def _assert_root_matches_the_two_root_descent(field, eta):
    # the two-root descent takes no closed form and no subfield shortcut
    root, reference = field.sqrt(eta), _reference_sqrt(field, eta)
    assert (root is None) == (reference is None)
    if root is not None:
        _assert_lowest_terms(root)
        assert root in (reference, _neg(reference))
        assert field.mul(root, root) == eta


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(RADICANDS), st.integers(-60, 60),
       st.one_of(st.just(0), st.integers(-30, 30)), st.integers(1, 36), st.booleans())
@example(2, 3, -2, 1, False)  # (1 - sqrt 2)^2
@example(2, 0, 1, 1, True)  # 2, whose root sqrt(2) is off Q
@example(3, -4, 0, 6, True)  # 4/9
def test_quadratic_sqrt_matches_the_two_root_descent(m, c0, c1, den, square):
    # the closed form on Q(sqrt m) against the descent through Q: elements
    # (c0 + c1 sqrt(m))/den drawn with a denominator that may share factors
    # with the coefficients and put in lowest terms, c0 negative or not, c1
    # zero or not, and about half of them squared
    assume(c0 or c1)
    field = _MultiQuadField([m])
    eta = units._lowest_terms([c0, c1], den)
    if square:
        eta = field.mul(eta, eta)
        assert field.sqrt(eta) is not None
    _assert_root_matches_the_two_root_descent(field, eta)


@settings(deadline=None)
@given(field_elements())
def test_subfield_sqrt_matches_the_two_root_descent(case):
    # eta with a zero sqrt(m_r) half lies in F: its root is taken in F, or
    # as y sqrt(m_r) with y^2 = eta/m_r in F, and equals the two-root
    # descent's up to sign on squares of both kinds and on elements that
    # mostly are no squares
    gens, field, u = case
    half = len(field.w) // 2
    coeffs, den = u
    assume(any(coeffs[:half]))
    x = units._lowest_terms(coeffs[:half] + [0] * half, den)
    m = ([gens[-1]] + [0] * (len(field.w) - 1), 1)
    square = field.mul(x, x)
    for eta in (x, _neg(x), square, _neg(square), field.mul(m, square), field.mul(m, x)):
        _assert_root_matches_the_two_root_descent(field, eta)
    assert field.sqrt(square) in (x, _neg(x))
    y = [0] * half + x[0][:half], x[1]
    assert field.sqrt(field.mul(m, square)) in (y, _neg(y))


# ---------------------------------------------------------------------------
# quadratic characters and the filtered saturation


def _brute_image(c, p):
    """The x in [0, p) with c.denominator * x = c.numerator mod p."""
    return next(x for x in range(p) if (c.denominator * x - c.numerator) % p == 0)


def test_roots_match_exhaustive_search():
    for p in range(3, 1000, 2):
        if not is_prime(p):
            continue
        least = {}
        for x in range(p - 1, 0, -1):
            least[x * x % p] = x
        assert len(least) == (p - 1) // 2
        roots = _roots(p)
        assert len(roots) == p
        for a in range(p):
            assert roots[a] == least.get(a, 0) and 2 * roots[a] < p
            assert (roots[a] != 0) == (kronecker(a, p) == 1)


@settings(deadline=None)
@given(field_elements())
def test_characters_are_legendre_symbols_of_images(case):
    gens, _, u = case
    chars = _characters(gens)
    assert len(chars) == CHARACTERS
    for p, rho in chars:
        assert is_prime(p) and all(m % p for m in [2] + gens)
        roots = tuple(rho[1 << i] for i in range(len(gens)))
        assert all((r * r - m) % p == 0 and 2 * r < p for r, m in zip(roots, gens))
        assert all(rho[s] == math.prod(r for i, r in enumerate(roots) if s >> i & 1) % p
                   for s in range(2 ** len(gens)))
    # the primes are the first ones, in order, modulo which every m_i is a square
    primes = [p for p, _ in chars]
    assert primes == [p for p in range(3, primes[-1] + 1, 2) if is_prime(p)
                      and all(kronecker(m, p) == 1 for m in gens)]
    if any(u[1] % p == 0 for p in primes):
        with pytest.raises(ArithmeticError):
            _character_vector(chars, u)
        return
    images = [sum(_brute_image(c, p) * r for c, r in zip(_fractions(u), rho)) % p
              for p, rho in chars]
    if 0 in images:
        with pytest.raises(ArithmeticError):
            _character_vector(chars, u)
        return
    squares = [{x * x % p for x in range(1, p)} for p, _ in chars]
    vector = _character_vector(chars, u)
    assert vector >> len(chars) == 0
    assert [vector >> k & 1 for k in range(len(chars))] == \
        [int(image not in sq) for image, sq in zip(images, squares)]


def _doubling_characters(gens):
    """The (p, rho) pairs of _characters by the earlier search: the primes
    in (lo, 2 lo] are read off the table for lo = 2, 4, 8, ..., and rho is
    built generator by generator until a symbol fails."""
    chars = []
    lo = 2
    while len(chars) < CHARACTERS:
        for p in arith._primes_upto(2 * lo):
            if p <= lo:
                continue
            roots = _roots(p)
            rho = [1]
            for m in gens:
                r = roots[m % p]
                if not r:
                    break
                rho += [x * r % p for x in rho]
            else:
                chars.append((p, tuple(rho)))
                if len(chars) == CHARACTERS:
                    break
        lo *= 2
    return chars


def test_one_pass_characters_match_the_doubling_search_on_the_row_corpus():
    last = set()
    for d in _row_corpus():
        gens = _row_calls(d)[3]
        chars = _characters(gens)
        assert list(chars) == _doubling_characters(gens)
        last.add(chars[-1][0])
    # the characters of the row fields stop at p = 1019, as _roots says
    assert max(last) == 1019
    # the 12th prime of this field lies past the walk's first limit, 1024,
    # so the walk goes on past it after doubling the limit
    chars = _characters((34, 65, 89))
    assert chars[-1][0] == 1481 and list(chars) == _doubling_characters((34, 65, 89))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(RADICANDS + [89, 131, 179, 197, 1019]),
                min_size=1, max_size=3, unique=True))
def test_one_pass_characters_match_the_doubling_search(gens):
    try:
        _MultiQuadField(gens)
    except ValueError:
        assume(False)
    assert list(_characters(gens)) == _doubling_characters(gens)


@settings(deadline=None)
@given(field_elements(count=2))
def test_character_vector_is_multiplicative(case):
    gens, field, u, v = case

    def nonzero(char, x):
        try:
            _character_vector(_Characters([char]), x)
        except ArithmeticError:
            return False
        return True

    chars = _Characters([c for c in _characters(gens) if nonzero(c, u) and nonzero(c, v)])
    assert _character_vector(chars, field.mul(u, v)) == \
        _character_vector(chars, u) ^ _character_vector(chars, v)


def test_character_vector_raises_on_zero_denominator_or_image():
    chars = _characters([2, 7])
    p, rho = chars[0]

    def raises_naming(u, chars):
        with pytest.raises(ArithmeticError) as error:
            _character_vector(chars, u)
        assert str(u) in str(error.value) and str(error.value).endswith(f" {p}")

    raises_naming(([1, p, 0, 0], p), chars)  # 1/p + sqrt(2)
    raises_naming(([p, 0, 0, 0], 1), chars)
    # sqrt(2) - r vanishes exactly at the primes above q that send sqrt(2)
    # to r, which exist where r^2 = 2 mod q
    u = ([-rho[1], 1, 0, 0], 1)
    raises_naming(u, _Characters(chars[:1]))
    _character_vector(_Characters([(q, r) for q, r in chars if (rho[1] ** 2 - 2) % q]), u)


def _reference_saturate(field, basis):
    """The unfiltered saturation loop: every product is built and tried."""
    basis = list(basis)
    q = 1
    while True:
        prods = [None]  # prods[mask] = product of basis[i] for the bits i of mask
        for mask in range(1, 2 ** len(basis)):
            top = mask.bit_length() - 1
            rest = mask ^ (1 << top)
            eta = field.mul(prods[rest], basis[top]) if rest else basis[top]
            prods.append(eta)
            xi = _reference_sqrt(field, eta)
            if xi is not None:
                break
        else:
            return q, basis
        basis[top] = xi if field.sign(xi) > 0 else _neg(xi)
        q *= 2


def _saturate_alone(field, basis):
    """_saturate with the field's own characters, which a kubota_index call
    without a table reads."""
    chars = _characters(field.gens)
    return _saturate(field, range(len(field.w)), basis, chars,
                     [_character_vector(chars, u) for u, _ in basis])


class _NoSqrtField(_MultiQuadField):
    def sqrt(self, eta):
        raise AssertionError(f"sqrt tried on {eta}")


def _f2_rank(vectors):
    rank, vectors = 0, list(vectors)
    while vectors:
        v = vectors.pop()
        if v:
            rank += 1
            low = v & -v
            vectors = [w ^ v if w & low else w for w in vectors]
    return rank


def _certified(gens, final) -> bool:
    """Whether the final basis's character matrix has full rank, in which
    case no product passes the filter and a rerun from that basis tries no
    sqrt; final holds _saturate's (element, radical) pairs."""
    chars = _characters(gens)
    if _f2_rank(_character_vector(chars, u) for u, _ in final) < len(final):
        return False
    assert _saturate_alone(_NoSqrtField(gens), final) == (1, final)
    return True


def _check_saturation(gens) -> bool:
    """q and the final basis, with roots from radicals where _saturate takes
    them, equal the exact unfiltered loop's; returns whether the final basis
    is certified."""
    field = _MultiQuadField(gens)
    basis = _unit_basis(field, fundamental_unit)
    q, final = _saturate_alone(field, basis)
    assert (q, [u for u, _ in final]) == _reference_saturate(field, [u for u, _ in basis])
    return _certified(gens, final)


@functools.cache
def _row_corpus():
    path = Path(__file__).resolve().parent.parent / "bench" / "data" / "row_fields.json"
    return [f["d"] for f in json.loads(path.read_text())["fields"]]


def _row_calls(d):
    """The radicands verify_invariant_row hands kubota_index for d: three
    quartic fields, then the octic one."""
    d1, d2, d3, d4 = (squarefree_kernel(x) for x in classify(d).assignment)
    return [(d1, squarefree_kernel(d2 * d3 * d4)), (d2, squarefree_kernel(d1 * d3 * d4)),
            (squarefree_kernel(d1 * d2), squarefree_kernel(d3 * d4)),
            (d1, d2, squarefree_kernel(d3 * d4))]


def test_saturation_matches_unfiltered_loop_quartic_row_corpus():
    certified = [_check_saturation(gens) for d in _row_corpus() for gens in _row_calls(d)[:3]]
    assert len(certified) == 453 and all(certified)


@pytest.mark.parametrize("stratum", range(8))
def test_saturation_matches_unfiltered_loop_octic_row_strata(stratum):
    # the first field of each eighth of the corpus, which is sorted by d
    corpus = _row_corpus()
    _check_saturation(_row_calls(corpus[stratum * len(corpus) // 8])[3])


@settings(deadline=None, max_examples=10)
@given(st.lists(st.sampled_from(RADICANDS), min_size=3, max_size=3, unique=True))
def test_saturation_matches_unfiltered_loop_radicand_triples(gens):
    try:
        _MultiQuadField(gens)
    except ValueError:
        assume(False)
    _check_saturation(gens)


# octic row fields whose final basis is certified at CHARACTERS = 12; the
# other 2 end with a character matrix below full rank
OCTIC_ROW_CORPUS_CERTIFIED = 149


def test_characters_certify_the_octic_row_corpus():
    certified = 0
    for d in _row_corpus():
        gens = _row_calls(d)[3]
        field = _MultiQuadField(gens)
        final = _saturate_alone(field, _unit_basis(field, fundamental_unit))[1]
        certified += _certified(gens, final)
    assert (CHARACTERS, certified) == (12, OCTIC_ROW_CORPUS_CERTIFIED)


def test_full_rank_characters_certify_the_genus_field_27993():
    # q = 2^7: every unit product acquires a root, and the final basis's
    # characters separate E_K modulo squares
    assert _check_saturation((217, 93, 1333))


class _CountingField(_MultiQuadField):
    """Counts the top-level exact sqrt tries."""

    def __init__(self, gens):
        super().__init__(gens)
        self.tries, self.depth = 0, 0

    def sqrt(self, eta):
        self.tries += self.depth == 0
        self.depth += 1
        try:
            return super().sqrt(eta)
        finally:
            self.depth -= 1


def test_radicals_decide_the_first_round_of_the_genus_field_27993(monkeypatch):
    # all 7 subfield units have norm +1, so the first square comes from
    # radicals; later rounds hold swapped-in roots and take the exact sqrt
    field = _CountingField((217, 93, 1333))
    basis = _unit_basis(field, fundamental_unit)
    assert all(radical is not None for _, radical in basis)
    chars = _characters(field.gens)
    vectors = [_character_vector(chars, u) for u, _ in basis]
    # within _saturate, a character vector is computed only for the root
    # swapped in; record the exact tries made before each swap
    tries_at_swap = []

    def at_swap(chars, u):
        tries_at_swap.append(field.tries)
        return _character_vector(chars, u)

    monkeypatch.setattr(units, "_character_vector", at_swap)
    q, _ = _saturate(field, range(len(field.w)), basis, chars, vectors)
    assert (q, len(tries_at_swap)) == (2**7, 7)
    assert tries_at_swap[0] == 0 < field.tries


def test_radical_roots_match_exact_roots_on_the_row_corpus():
    # every product of original norm +1 units in every kubota_index field of
    # the row corpus, whether or not its characters pass: the radicals decide
    # squareness as the exact sqrt does and give its positive root, so
    # _saturate tests no radical root's sign
    masks = squares = 0
    for d in _row_corpus():
        for gens in _row_calls(d):
            field = _MultiQuadField(gens)
            units = [(u, radical) for u, radical in _unit_basis(field, fundamental_unit)
                     if radical is not None]
            for mask in range(1, 2 ** len(units)):
                factors = [units[i] for i in range(len(units)) if mask >> i & 1]
                root = _radical_root(field, [radical for _, radical in factors])
                exact = _reference_sqrt(field, functools.reduce(field.mul, (u for u, _ in factors)))
                assert (root is None) == (exact is None)
                if root is not None:
                    _assert_lowest_terms(root)
                    assert field.sign(root) == 1
                    assert root == (exact if field.sign(exact) == 1 else _neg(exact))
                    squares += 1
                masks += 1
    assert (masks, squares) == (5244, 2136)


# sha256 of the compact JSON list [gens, q, final basis with each coefficient
# as [numerator, denominator] in lowest terms], one entry per kubota_index
# call of the row corpus, pinned from the Fraction-coefficient field of
# commit ff7db03; it does not depend on how elements are stored
ROW_CORPUS_SATURATION_SHA256 = "bfa00f645d9538ee7e75cc9babf69de3fc3040dd7d94b4340581006632f6b629"


def _saturation_digest(calls):
    """The digest of (gens, (q, final basis)) for each call."""
    out = [[list(gens), q, [[[f.numerator, f.denominator] for f in _fractions(u)]
                            for u, _ in final]]
           for gens, (q, final) in calls]
    assert len(out) == 604
    return hashlib.sha256(json.dumps(out, separators=(",", ":")).encode()).hexdigest()


def test_saturation_of_the_row_corpus_matches_pinned_digest():
    calls = []
    for d in _row_corpus():
        for gens in _row_calls(d):
            field = _MultiQuadField(gens)
            basis = _unit_basis(field, fundamental_unit)
            calls.append((gens, _saturate_alone(field, basis)))
    assert _saturation_digest(calls) == ROW_CORPUS_SATURATION_SHA256


def _rebase(src, dst, u):
    """The element u of src's product basis on dst's, its masks matched by
    their kernels: sqrt(w[S]) = g sqrt(kernel[S]) with g^2 = w[S]/kernel[S]
    in either field, so a coefficient is multiplied by g_src/g_dst.  A mask
    of u whose kernel is none of dst's raises ValueError."""
    coeffs, den = u
    out = [Fraction(0)] * len(dst.w)
    for s, c in enumerate(coeffs):
        if c:
            t = dst.kernel.index(src.kernel[s])
            g_src = math.isqrt(src.w[s] // src.kernel[s])
            g_dst = math.isqrt(dst.w[t] // dst.kernel[t])
            out[t] = Fraction(c * g_src, den * g_dst)
    return _element(out)


def test_saturation_through_the_shared_table_matches_pinned_digest(monkeypatch):
    tries = Counter()
    exact_sqrt, radical_root = _MultiQuadField.sqrt, units._radical_root

    def counting_sqrt(field, eta):
        # the descent recurses through sqrt; count the tries _saturate makes
        top = not tries["depth"]
        tries["depth"] += 1
        try:
            root = exact_sqrt(field, eta)
        finally:
            tries["depth"] -= 1
        tries["exact", root is None] += top
        return root

    def counting_radical_root(field, radicals):
        # a radical root off the subfield's masks lies only in the octic field
        root = radical_root(field, radicals)
        tries["radical", root is None] += 1
        tries["radical off the subfield"] += root is not None and any(
            c for s, c in enumerate(root[0]) if s not in subfield_masks)
        return root

    monkeypatch.setattr(_MultiQuadField, "sqrt", counting_sqrt)
    monkeypatch.setattr(units, "_radical_root", counting_radical_root)
    # each row field's four calls read the octic field's unit basis and
    # characters, and saturate on its product basis; a quartic final basis
    # is moved back to the quartic field's own product basis for the digest
    calls = []
    for d in _row_corpus():
        octic = _row_calls(d)[3]
        table = CharacterTable(octic)
        assert len(table.basis) == len(table.vectors) == 7
        for gens in _row_calls(d):
            args = table.subfield(gens)
            subfield_masks = set(args[1])
            q, final = _saturate(*args)
            own = _MultiQuadField(gens)
            calls.append((gens, (q, [(_rebase(table.field, own, u), radical)
                                     for u, radical in final])))
    assert _saturation_digest(calls) == ROW_CORPUS_SATURATION_SHA256
    # a round after a swap into basis[top] starts at mask 1 << top; from
    # mask 1 the tries would be 206 exact (7 failed) and 1323 radical.  The
    # radical products that pass the octic characters are all squares in the
    # octic field, and 235 of their roots lie outside the quartic subfield
    assert tries == {"depth": 0, ("exact", False): 199, ("exact", True): 2,
                     ("radical", False): 1200, "radical off the subfield": 235}


def test_saturation_keeps_only_roots_in_the_subfield():
    # 3 is a square in K = Q(sqrt 2, sqrt 3), and K's characters are +1 on
    # it, but it is no square in the subfield Q(sqrt 2): its root sqrt(3)
    # lies off that subfield's masks 0 and 1, so it is no root there
    table = CharacterTable([2, 3])
    k, chars = table.field, table.chars
    three = ([3, 0, 0, 0], 1)
    assert k.sqrt(three) == ([0, 0, 1, 0], 1)
    basis, vectors = [(three, None)], [_character_vector(chars, three)]
    assert vectors == [0]
    assert _saturate(k, [0, 1], basis, chars, vectors) == (1, basis)
    assert _saturate(k, [0, 2], basis, chars, vectors) == (2, [(([0, 0, 1, 0], 1), None)])


def test_saturation_swaps_in_the_positive_exact_root():
    # the descent's root of 3 - 2 sqrt(2) = (sqrt(2) - 1)^2 is 1 - sqrt(2);
    # the row corpus meets no such root, whose sign _saturate must flip
    k = _MultiQuadField([2])
    eta = ([3, -2], 1)
    assert k.sqrt(eta) == ([1, -1], 1)
    chars = _characters(k.gens)
    basis, vectors = [(eta, None)], [_character_vector(chars, eta)]
    assert _saturate(k, [0, 1], basis, chars, vectors) == (2, [(([-1, 1], 1), None)])


def test_quartic_indices_through_the_octic_table_match_standalone_calls():
    # a quartic index saturated on the octic field's basis, under its
    # characters, equals the index of the quartic field saturated alone on
    # its own basis, under its own characters
    checked = 0
    for d in _row_corpus():
        calls = _row_calls(d)
        table = CharacterTable(calls[3], functools.cache(fundamental_unit))
        for gens in calls[:3]:
            assert kubota_index(*gens, table=table) == kubota_index(*gens), gens
            checked += 1
    assert checked == 453


def test_row_pass_leaves_only_the_prime_tables_in_units():
    # every unit basis, character set and CRT lift lives on the table of one
    # verify_invariant_row call; the module keeps only the _roots tables
    def state():
        return {name: (value, len(value) if isinstance(value, (dict, list, set)) else None)
                for name, value in vars(units).items()}

    _roots.cache_clear()
    before = state()
    for d in _row_corpus():
        verify_invariant_row(d)
    assert state() == before
    cached = [name for name, value in vars(units).items()
              if getattr(value, "__module__", None) == units.__name__
              and hasattr(value, "cache_info") and value.cache_info().currsize]
    assert cached == ["_roots"]
    # the characters walk every odd prime up to their last one, 1019
    odd_primes = [p for p in range(3, 1020, 2) if is_prime(p)]
    assert _roots.cache_info().currsize == len(odd_primes) == 170


def _restricted_characters(table, gens):
    """The table field's characters restricted to its subfield L on gens,
    at the same primes: with n_j = kernel[S_j], the root of n_j mod p is
    rho[S_j]/g_j with g_j^2 = w[S_j]/n_j, so every element of L has the
    image it has as an element of the table field."""
    k = table.field
    masks = [k.kernel.index(m) for m in gens]
    scales = [math.isqrt(k.w[s] // m) for s, m in zip(masks, gens)]
    chars = []
    for p, rho in table.chars:
        sub = [1]
        for s, g in zip(masks, scales):
            r = rho[s] * pow(g, -1, p) % p
            sub += [x * r % p for x in sub]
        chars.append((p, tuple(sub)))
    return _Characters(chars)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.sampled_from(RADICANDS), min_size=3, max_size=3, unique=True),
       st.lists(st.integers(1, 7), min_size=1, max_size=3), st.data())
def test_restricted_characters_are_characters_of_the_subfield(gens, masks, data):
    # the subfield's own characters, restricted from K's, give every element
    # of the subfield the vector that K's characters give it on K's basis,
    # which _saturate reads
    try:
        table = CharacterTable(gens)
        radicands = [table.field.kernel[s] for s in masks]
        k, at, basis, chars, vectors = table.subfield(radicands)
    except ValueError:
        assume(False)
    field = _MultiQuadField(radicands)
    restricted = _restricted_characters(table, radicands)
    assert (k, chars) == (table.field, table.chars)
    assert [p for p, _ in restricted] == [p for p, _ in table.chars]
    for p, rho in restricted:
        roots = [rho[1 << i] for i in range(len(radicands))]
        assert all((r * r - m) % p == 0 for r, m in zip(roots, radicands))
        assert all(rho[s] == math.prod(r for i, r in enumerate(roots) if s >> i & 1) % p
                   for s in range(len(rho)))
    # the subfield's units, on its own basis and on K's, and their vectors
    own = _unit_basis(field, fundamental_unit)
    assert [_rebase(k, field, u) for u, _ in basis] == [u for u, _ in own]
    assert [k.kernel[s] for s in at] == field.kernel
    assert vectors == [_character_vector(restricted, u) for u, _ in own]
    assert vectors == [_character_vector(chars, u) for u, _ in basis]

    def element():
        coeffs = data.draw(st.lists(st.integers(-6, 6), min_size=len(field.w),
                                    max_size=len(field.w)))
        assume(any(coeffs))
        den = data.draw(st.integers(1, 6))
        return _element([Fraction(c, den) for c in coeffs])

    u, v = element(), element()

    def nonzero(char, x):
        try:
            _character_vector(_Characters([char]), x)
        except ArithmeticError:
            return False
        return True

    kept = [c for c in restricted if nonzero(c, u) and nonzero(c, v)]
    # the same vector in L and in K, and the vector of a product is the XOR
    # of the factors' vectors
    in_k = _Characters([c for c in table.chars if c[0] in {p for p, _ in kept}])
    kept = _Characters(kept)
    for x in (u, v):
        assert _character_vector(kept, x) == _character_vector(in_k, _rebase(field, k, x))
    assert _character_vector(kept, field.mul(u, v)) == \
        _character_vector(kept, u) ^ _character_vector(kept, v)


def test_multiquadratic_h2_validation():
    # Kuroda's formula for a real biquadratic field: h2 = q h2_1 h2_2 h2_3 / 4
    assert multiquadratic_h2([1, 2, 1], 2) == 1
    assert multiquadratic_h2([1, 4, 2], 2) == 4
    assert multiquadratic_h2([4, 1, 1, 1, 1, 1, 1], 128) == 1
    # the count of subfield class numbers is the degree's: 3 or 7
    for count in (2, 4, 6):
        with pytest.raises(ValueError, match="need 3 or 7"):
            multiquadratic_h2([1] * count, 2)
    with pytest.raises(ValueError, match="inconsistent inputs"):
        multiquadratic_h2([1, 1, 1], 1)
