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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadtower import units
from quadtower.arith import (
    BoundExceededError,
    discriminant_of,
    factorize,
    is_fundamental_discriminant,
    is_prime,
    is_square,
    kronecker,
    radicand,
    squarefree_kernel,
)
from quadtower.classify import classify
from quadtower.qform import genus_positivity, two_class_number
from quadtower.units import (
    CHARACTERS,
    CharacterTable,
    NormMinusOneError,
    _character_vector,
    _characters,
    _MultiQuadField,
    _radical_root,
    _roots,
    _saturate,
    _unit_basis,
    QuadUnit,
    conjugate_sign_table,
    delta_invariant,
    fundamental_unit,
    kubota_index,
    multiquadratic_h2,
    sqrt_conjugate_sign,
    sqrt_unit_decomposition,
    unit_conjugate_sign,
    word_conjugate_sign,
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
    assert u.trace() == x


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
    decomposed = 0
    for d in range(5, 20000):
        if not is_fundamental_discriminant(d):
            continue
        u = fundamental_unit(d)
        if u.norm == 1:
            dec = sqrt_unit_decomposition(u)
            x, ym = u.coords_over_radicand()
            assert dec.a * dec.a * dec.m1 + dec.b * dec.b * dec.m2 == 2 * x
            assert (dec.a * dec.b) ** 2 * dec.m1 * dec.m2 == ym * ym * u.m
            # delta by its definition, the squarefree kernel of N(1 + eps)
            # = x + 2, without the walk over the primes of 2m
            delta = delta_invariant(u)
            assert delta == dec.m1 == squarefree_kernel(delta)
            assert (u.x + 2) % delta == 0 and is_square((u.x + 2) // delta)
            decomposed += 1
    assert decomposed == 4216


def test_sqrt_decomposition_is_built_once_per_unit(monkeypatch):
    import quadtower.units as units

    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(units, "factorize", counting)
    u = fundamental_unit(19176)
    dec = sqrt_unit_decomposition(u)
    assert sqrt_unit_decomposition(u) is dec
    assert delta_invariant(u) == dec.m1
    assert calls == [2 * u.m]
    # kept on this object only: an equal unit builds its own, and the
    # cached root changes neither equality, hash nor repr
    twin = fundamental_unit(19176)
    assert (twin, hash(twin), repr(twin)) == (u, hash(u), repr(u))
    assert sqrt_unit_decomposition(twin) == dec
    assert calls == [2 * u.m] * 2
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
# conjugate signs


def test_conjugate_sign_basics():
    u12 = fundamental_unit(12)
    dec = sqrt_unit_decomposition(u12)
    assert sqrt_conjugate_sign(dec, {3: -1, 2: 1}) == -1
    assert sqrt_conjugate_sign(dec, {3: 1, 2: 1}) == 1
    assert sqrt_conjugate_sign(dec, {3: 1, 2: -1}) == -1
    assert unit_conjugate_sign(u12, {3: -1, 2: 1}) == 1  # norm +1
    u8 = fundamental_unit(8)
    assert unit_conjugate_sign(u8, {2: -1}) == -1  # norm -1
    assert unit_conjugate_sign(u8, {2: 1}) == 1
    with pytest.raises(ValueError):
        sqrt_conjugate_sign(dec, {3: -1})  # prime 2 not covered
    with pytest.raises(ValueError):
        word_conjugate_sign([("cube", u12)], {3: 1, 2: 1})


def test_word_signs_multiply():
    u12 = fundamental_unit(12)
    u8 = fundamental_unit(8)
    signs = {3: -1, 2: -1}
    w = [("sqrt", u12), ("plain", u8)]
    assert word_conjugate_sign(w, signs) == \
        sqrt_conjugate_sign(sqrt_unit_decomposition(u12), signs) * \
        unit_conjugate_sign(u8, signs)


def test_conjugate_sign_table_field_27993():
    # d = 27993 = (-7)(-3)(-43)(-31): unit signatures over the real octic
    # genus field, embeddings fixing sqrt(31), columns ordered
    # s1, s2, s3, s1s2, s1s3, s2s3, s1s2s3 where s_i flips sqrt(p_i) only
    # for (p1, p2, p3) = (7, 3, 43).
    e12 = fundamental_unit(discriminant_of(21))
    e13 = fundamental_unit(discriminant_of(301))
    e14 = fundamental_unit(discriminant_of(217))
    e23 = fundamental_unit(discriminant_of(129))
    e24 = fundamental_unit(discriminant_of(93))
    e34 = fundamental_unit(discriminant_of(1333))
    ek = fundamental_unit(discriminant_of(27993))

    words = [
        [("sqrt", e12), ("sqrt", e13)],
        [("sqrt", e12), ("sqrt", e14)],
        [("sqrt", e12), ("sqrt", e23)],
        [("sqrt", e12), ("sqrt", e24)],
        [("sqrt", e12), ("sqrt", e34)],
        [("sqrt", e12), ("sqrt", ek)],
        [("plain", ek)],
    ]
    flips = [(7,), (3,), (43,), (7, 3), (7, 43), (3, 43), (7, 3, 43)]
    embeddings = [
        {p: (-1 if p in flip else 1) for p in (7, 3, 43, 31)}
        for flip in flips
    ]
    table = conjugate_sign_table(words, embeddings)
    assert table == [
        [-1, 1, -1, -1, 1, -1, 1],
        [1, 1, 1, 1, 1, 1, 1],
        [-1, 1, -1, -1, 1, -1, 1],
        [-1, 1, 1, -1, -1, 1, -1],
        [-1, 1, 1, -1, -1, 1, -1],
        [1, 1, -1, 1, -1, -1, -1],
        [1, 1, 1, 1, 1, 1, 1],
    ]


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


def test_kubota_index_feeds_quartic_class_numbers():
    # h2 of Q(sqrt(2), sqrt(4794)) from its three quadratic subfields
    q = kubota_index(8, 19176)
    h2s = [two_class_number(discriminant_of(m)) for m in (2, 4794, 2397)]
    assert multiquadratic_h2(h2s, q, 4) == 4


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
    assert multiquadratic_h2(h2s, q, 8) == 1


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


def test_sqrt_takes_the_sign_of_y_from_b():
    # At Q both half-roots x and y come out positive, so a root whose
    # sqrt(m) coefficient is negative is reached only through 2xy = -b.
    field = _MultiQuadField([2])
    assert field.sqrt(([3, -2], 1)) == ([1, -1], 1)  # (1 - sqrt 2)^2
    assert field.sqrt(([3, -2], 4)) == ([1, -1], 2)
    assert field.sqrt(([3, 2], 1)) == ([1, 1], 1)
    field = _MultiQuadField([2, 3])
    assert field.sqrt(([5, 0, 0, -2], 1)) == ([0, 1, -1, 0], 1)  # (sqrt 2 - sqrt 3)^2
    assert field.sqrt(([5, 0, 0, 2], 1)) == ([0, 1, 1, 0], 1)


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


@settings(deadline=None)
@given(field_elements(count=2))
def test_character_vector_is_multiplicative(case):
    gens, field, u, v = case

    def nonzero(char, x):
        try:
            _character_vector([char], x)
        except ArithmeticError:
            return False
        return True

    chars = [c for c in _characters(gens) if nonzero(c, u) and nonzero(c, v)]
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
    raises_naming(u, chars[:1])
    _character_vector([(q, r) for q, r in chars if (rho[1] ** 2 - 2) % q], u)


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
            xi = field.sqrt(eta)
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
    return _saturate(field, basis, chars, [_character_vector(chars, u) for u, _ in basis])


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
    """Counts the top-level exact sqrt tries, and records the count each
    time _saturate asks the sign of the root it swaps in."""

    def __init__(self, gens):
        super().__init__(gens)
        self.tries, self.depth, self.tries_at_swap = 0, 0, []

    def sqrt(self, eta):
        self.tries += self.depth == 0
        self.depth += 1
        try:
            return super().sqrt(eta)
        finally:
            self.depth -= 1

    def sign(self, u):
        self.tries_at_swap.append(self.tries)
        return super().sign(u)


def test_radicals_decide_the_first_round_of_the_genus_field_27993():
    # all 7 subfield units have norm +1, so the first square comes from
    # radicals; later rounds hold swapped-in roots and take the exact sqrt
    field = _CountingField((217, 93, 1333))
    basis = _unit_basis(field, fundamental_unit)
    assert all(radical is not None for _, radical in basis)
    q, _ = _saturate_alone(field, basis)
    assert (q, len(field.tries_at_swap)) == (2**7, 7)
    assert field.tries_at_swap[0] == 0 < field.tries


def test_radical_roots_match_exact_roots_on_the_row_corpus():
    # every product of original norm +1 units in every kubota_index field of
    # the row corpus, whether or not its characters pass: the radicals decide
    # squareness as the exact sqrt does and give its root up to sign
    masks = squares = 0
    for d in _row_corpus():
        for gens in _row_calls(d):
            field = _MultiQuadField(gens)
            units = [(u, radical) for u, radical in _unit_basis(field, fundamental_unit)
                     if radical is not None]
            for mask in range(1, 2 ** len(units)):
                factors = [units[i] for i in range(len(units)) if mask >> i & 1]
                root = _radical_root(field, [radical for _, radical in factors])
                exact = field.sqrt(functools.reduce(field.mul, (u for u, _ in factors)))
                assert (root is None) == (exact is None)
                if root is not None:
                    _assert_lowest_terms(root)
                    assert root in (exact, _neg(exact))
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
        root = radical_root(field, radicals)
        tries["radical", root is None] += 1
        return root

    monkeypatch.setattr(_MultiQuadField, "sqrt", counting_sqrt)
    monkeypatch.setattr(units, "_radical_root", counting_radical_root)
    # each row field's four calls read the characters of the octic field,
    # restricted to the quartic ones, and share the units' vectors
    calls = []
    for d in _row_corpus():
        octic = _row_calls(d)[3]
        table, unit = CharacterTable(octic), functools.cache(fundamental_unit)
        calls += [(gens, _saturate(*table.subfield(gens, unit))) for gens in _row_calls(d)]
        assert sorted(table.vectors) == list(range(1, 8))
    assert _saturation_digest(calls) == ROW_CORPUS_SATURATION_SHA256
    # a round after a swap into basis[top] starts at mask 1 << top; from
    # mask 1 the tries would be 206 exact (7 failed) and 1323 radical (358)
    assert tries == {"depth": 0, ("exact", False): 199, ("exact", True): 2,
                     ("radical", False): 965, ("radical", True): 235}


@settings(deadline=None, max_examples=25)
@given(st.lists(st.sampled_from(RADICANDS), min_size=3, max_size=3, unique=True),
       st.lists(st.integers(1, 7), min_size=1, max_size=3), st.data())
def test_restricted_characters_are_characters_of_the_subfield(gens, masks, data):
    try:
        table = CharacterTable(gens)
        radicands = [table.field.kernel[s] for s in masks]
        field, basis, chars, vectors = table.subfield(radicands, fundamental_unit)
    except ValueError:
        assume(False)
    assert [p for p, _ in chars] == [p for p, _ in table.chars]
    for p, rho in chars:
        roots = [rho[1 << i] for i in range(len(radicands))]
        assert all((r * r - m) % p == 0 for r, m in zip(roots, radicands))
        assert all(rho[s] == math.prod(r for i, r in enumerate(roots) if s >> i & 1) % p
                   for s in range(len(rho)))
    # a subfield unit has the vector it has in K, where K's own characters
    # read it
    k_vectors = [_character_vector(table.chars, u)
                 for u, _ in _unit_basis(table.field, fundamental_unit)]
    assert vectors == [_character_vector(chars, u) for u, _ in basis]
    k_mask = table.field.kernel.index
    assert vectors == [k_vectors[k_mask(m) - 1] for m in field.kernel[1:]]
    # the vector of a product is the XOR of the factors' vectors
    def element():
        coeffs = data.draw(st.lists(st.integers(-6, 6), min_size=len(field.w),
                                    max_size=len(field.w)))
        assume(any(coeffs))
        den = data.draw(st.integers(1, 6))
        return _element([Fraction(c, den) for c in coeffs])

    u, v = element(), element()

    def nonzero(char, x):
        try:
            _character_vector([char], x)
        except ArithmeticError:
            return False
        return True

    kept = [c for c in chars if nonzero(c, u) and nonzero(c, v)]
    assert _character_vector(kept, field.mul(u, v)) == \
        _character_vector(kept, u) ^ _character_vector(kept, v)


def test_multiquadratic_h2_validation():
    # Kuroda's formula for a real biquadratic field: h2 = q h2_1 h2_2 h2_3 / 4
    assert multiquadratic_h2([1, 2, 1], 2, 4) == 1
    assert multiquadratic_h2([1, 4, 2], 2, 4) == 4
    assert multiquadratic_h2([4, 1, 1, 1, 1, 1, 1], 128, 8) == 1
    with pytest.raises(ValueError):
        multiquadratic_h2([1, 1], 2, 4)
    with pytest.raises(ValueError):
        multiquadratic_h2([1, 1, 1], 2, 6)
    with pytest.raises(ValueError, match="inconsistent inputs"):
        multiquadratic_h2([1, 1, 1], 1, 4)
