"""Tests for fundamental units, square-root decompositions and sign tables."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadtower.arith import (
    BoundExceededError,
    discriminant_of,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    squarefree_kernel,
)
from quadtower.qform import genus_positivity, two_class_number
from quadtower.units import (
    NormMinusOneError,
    _MultiQuadField,
    QuadUnit,
    conjugate_sign_table,
    delta_invariant,
    fundamental_unit,
    kubota_index,
    multiquadratic_h2,
    sqrt_conjugate_sign,
    sqrt_unit_decomposition,
    unit_conjugate_sign,
    unit_of_radicand,
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


def test_unit_identity_and_minimality_up_to_2000():
    # brute Pell check: no smaller y solves x^2 - d y^2 = +-4
    from quadtower.arith import is_square

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
        u = unit_of_radicand(p)
        assert u.norm == (-1 if p == 2 or p % 4 == 1 else 1)
    # composite radicands with every prime 3 mod 4 force norm +1
    assert unit_of_radicand(21).norm == 1
    assert unit_of_radicand(1333).norm == 1
    assert unit_of_radicand(65).norm == -1
    assert unit_of_radicand(34).norm == 1


def test_coords_over_radicand():
    u = fundamental_unit(12)
    assert u.m == 3
    assert u.coords_over_radicand() == (4, 2)  # (4 + 2*sqrt(3))/2 = 2+sqrt(3)
    v = fundamental_unit(21)
    assert v.coords_over_radicand() == (5, 1)


# ---------------------------------------------------------------------------
# delta invariant and sqrt decompositions


def test_delta_invariant_examples():
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
            dec = sqrt_unit_decomposition(unit_of_radicand(p * q))
            assert set(dec.basis) == {p, q}
            s = dec.sign_identity(leading=p)
            assert s == kronecker(p, q) == -kronecker(q, p)


def test_sign_identity_radicand_2p():
    # units of Q(sqrt(2p)), p = 3 mod 4: sqrt(eps) = a sqrt(2) + b sqrt(p)
    for p in primes_3_mod_4(200):
        dec = sqrt_unit_decomposition(unit_of_radicand(2 * p))
        assert set(dec.basis) == {2, p}
        assert dec.a % 2 == 0 and dec.b % 2 == 0
        assert dec.sign_identity(leading=2) == kronecker(2, p) \
            == kronecker(-p, 2)


def test_sign_identity_radicand_p():
    # units of Q(sqrt(p)), p = 3 mod 4: sqrt(eps) = (a sqrt(2p) + b sqrt(2))/2
    for p in primes_3_mod_4(500):
        dec = sqrt_unit_decomposition(unit_of_radicand(p))
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
    e12 = unit_of_radicand(21)
    e13 = unit_of_radicand(301)
    e14 = unit_of_radicand(217)
    e23 = unit_of_radicand(129)
    e24 = unit_of_radicand(93)
    e34 = unit_of_radicand(1333)
    ek = unit_of_radicand(27993)

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
    u = unit_of_radicand(27993)
    assert int(delta_invariant(u)) == 7 * 43 * 31
    dec = sqrt_unit_decomposition(u)
    assert set(dec.basis) == {3, 7 * 43 * 31}
    assert dec.sign_identity(leading=3) == -1
    assert genus_positivity(27993, 7 * 43 * 31)


def test_unit_genus_positivity_instance_3948():
    # all-negative factorization with -4: d = (-7)(-3)(-47)(-4),
    # radicand 987, delta(eps) = p1*p2 = 21
    u = unit_of_radicand(987)
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


@st.composite
def field_elements(draw):
    """An independent set of 1-3 radicands and a nonzero element of its field."""
    gens = draw(st.lists(st.sampled_from(RADICANDS), min_size=1, max_size=3))
    try:
        field = _MultiQuadField(gens)
    except ValueError:
        assume(False)
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=2 ** len(gens),
                           max_size=2 ** len(gens)))
    assume(any(coeffs))
    return gens, field, [Fraction(c, 2) for c in coeffs]


@settings(deadline=None)
@given(field_elements())
def test_exact_sqrt_and_sign(case):
    gens, field, u = case
    square = field.mul(u, u)
    assert field.sqrt(square) in (u, [-c for c in u])
    p = next(p for p in range(2, 100) if is_prime(p) and all(m % p for m in gens))
    assert field.sqrt([p * c for c in square]) is None
    assert field.sign(square) == 1
    assert field.sign([-c for c in square]) == -1
    # floating-point oracle for the sign of u itself, away from zero
    value = sum(c * math.prod(math.sqrt(m) for i, m in enumerate(gens) if s >> i & 1)
                for s, c in enumerate(u))
    if abs(value) > 1e-6:
        assert field.sign(u) == (1 if value > 0 else -1)


def test_multiquadratic_h2_validation():
    assert multiquadratic_h2([1, 2, 1], 2, 4) == 1
    assert multiquadratic_h2([1, 4, 2], 2, 4) == 4
    assert multiquadratic_h2([4, 1, 1, 1, 1, 1, 1], 128, 8) == 1
    with pytest.raises(ValueError):
        multiquadratic_h2([1, 1], 2, 4)
    with pytest.raises(ValueError):
        multiquadratic_h2([1, 1, 1], 2, 6)
    with pytest.raises(ValueError):
        multiquadratic_h2([1, 1, 1], 1, 4)
