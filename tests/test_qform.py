import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quadtower.classify as classify_mod
import quadtower.qform as qform_mod
from quadtower.arith import (
    BoundExceededError,
    NotFundamentalError,
    factor_discriminant,
    is_fundamental_discriminant,
    is_sum_of_two_squares,
    kronecker,
)
from quadtower.qform import (
    BQForm,
    C4Splitting,
    FormClassGroup,
    _two_part,
    abelian_structure,
    c4_splittings,
    character_matrix,
    class_group,
    compose,
    cycle_of,
    genus_positivity,
    is_reduced,
    narrow_four_rank,
    principal_form,
    reduce_form,
    two_class_number,
    two_sylow,
)
from quadtower.units import fundamental_unit

from analytic import analytic_class_number, log_fundamental_unit
from strategies import four_factor_discriminants


def fundamental_range(lo, hi):
    return [d for d in range(lo, hi) if d and is_fundamental_discriminant(d)]


def test_reduce_definite_fixed_points():
    assert reduce_form(BQForm(1, 1, 6)) == BQForm(1, 1, 6)
    assert reduce_form(BQForm(2, -1, 3)) == BQForm(2, -1, 3)
    # translated/swapped messes land on the canonical reduced forms
    assert reduce_form(BQForm(6, 17, 13)) == BQForm(2, -1, 3)
    assert reduce_form(BQForm(1, 17, 78)) == BQForm(1, 1, 6)


def test_reduce_indefinite_lands_on_cycle():
    f = BQForm(6, 2, -1)
    assert f.disc == 28
    g = reduce_form(f)
    assert g.disc == 28 and is_reduced(g)
    s = math.isqrt(28)
    assert 0 < g.b and g.b * g.b < 28
    assert (2 * abs(g.a) + g.b) ** 2 > 28
    assert 2 * abs(g.a) <= g.b or (2 * abs(g.a) - g.b) ** 2 < 28


def test_compose_examples_disc_minus_23():
    one = BQForm(1, 1, 6)
    f = BQForm(2, 1, 3)
    finv = BQForm(2, -1, 3)
    assert reduce_form(compose(f, finv)) == one
    assert reduce_form(compose(one, f)) == f
    assert reduce_form(compose(f, f)) == finv


def test_composition_group_axioms_small_discriminants():
    for d in fundamental_range(-120, 120):
        g = class_group(d)
        reps = g.class_representatives
        ident = g.identity
        for x in reps:
            assert g.multiply(ident, x) == x
            assert g.multiply(x, BQForm(x.a, -x.b, x.c)) == ident
        for x in reps:
            for y in reps:
                for z in reps:
                    assert g.multiply(g.multiply(x, y), z) == \
                        g.multiply(x, g.multiply(y, z))


def test_composition_commutes_and_closes_medium_range():
    for d in fundamental_range(-2000, 2000):
        g = class_group(d)
        reps = g.class_representatives
        sample = reps[: min(len(reps), 4)]
        for x in sample:
            for y in reps:
                xy = g.multiply(x, y)
                assert xy in reps
                assert xy == g.multiply(y, x)


_SMALL_DISCS = fundamental_range(-400, 400)


def _equivalent_form(f, steps):
    # a properly equivalent form, by x -> x + k y and, while the leading
    # coefficient stays positive, (x, y) -> (-y, x) after each shift
    for k in steps:
        f = BQForm(f.a, f.b + 2 * f.a * k, f.a * k * k + f.b * k + f.c)
        if f.c > 0:
            f = BQForm(f.c, -f.b, f.a)
    return f


def _class_of(f):
    # the representative class_group lists: the reduced form for d < 0, the
    # least form with a > 0 on the reduced cycle for d > 0
    g = reduce_form(f)
    return g if f.disc < 0 else min(h for h in cycle_of(g) if h.a > 0)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_SMALL_DISCS),
    st.lists(st.tuples(st.integers(0, 10**6), st.lists(st.integers(-6, 6), max_size=4)),
             min_size=3, max_size=3),
)
def test_raw_composition_commutes_and_associates_on_random_forms(d, draws):
    # oracle: the class group table that class_group builds by enumeration
    g = class_group(d)
    reps = g.class_representatives
    (x, fx), (y, fy), (z, fz) = [
        (reps[i % len(reps)], _equivalent_form(reps[i % len(reps)], steps))
        for i, steps in draws
    ]
    assert [_class_of(f) for f in (fx, fy, fz)] == [x, y, z]
    xy = g.multiply(x, y)
    assert _class_of(compose(fx, fy)) == _class_of(compose(fy, fx)) == xy
    assert _class_of(compose(compose(fx, fy), fz)) == _class_of(
        compose(fx, compose(fy, fz))
    ) == g.multiply(xy, z)


def test_class_number_matches_analytic_oracle_small():
    for d in fundamental_range(-1500, 1500):
        g = class_group(d, narrow=False)
        if d < 0:
            assert g.h == analytic_class_number(d), d
        else:
            u = fundamental_unit(d)
            h = analytic_class_number(d, log_fundamental_unit(u))
            assert g.h == h, d


def test_frozen_structures():
    assert class_group(-23).elementary_divisors == [3]
    g40 = class_group(40, narrow=False)
    assert g40.elementary_divisors == [2]
    # norm -1 unit: narrow and ordinary coincide
    assert fundamental_unit(40).norm == -1
    assert class_group(40, narrow=True).elementary_divisors == [2]
    gn = class_group(19176, narrow=True)
    go = class_group(19176, narrow=False)
    assert two_sylow(go) == [2, 2]
    assert two_sylow(gn) == [2, 2, 2]
    assert gn.h == 2 * go.h
    # odd p-parts of order p^2 and mixed p-parts
    for d, chain in [(-3299, [3, 9]), (-4027, [3, 3]), (-3896, [3, 12]),
                     (-11651, [3, 18]), (-15544, [6, 6])]:
        assert class_group(d).elementary_divisors == chain, d
    for narrow in (False, True):
        assert class_group(62501, narrow=narrow).elementary_divisors == [3, 3]


# sha256 over repr((d, narrow, elementary_divisors)) for every fundamental
# d in [-3000, 3000], narrow False then True.  The chains were computed by an
# independent algorithm (Smith normal form of the relation lattice).
_STRUCTURES_3000_SHA256 = (
    "b98e91e57bdb5ae0ba80708821c966ec2f27ff97cb30e00ef876551dd72ede39"
)


def test_structures_up_to_3000_match_frozen_digest():
    digest = hashlib.sha256()
    for d in fundamental_range(-3000, 3001):
        for narrow in (False, True):
            divs = class_group(d, narrow=narrow).elementary_divisors
            digest.update(repr((d, narrow, divs)).encode())
    assert digest.hexdigest() == _STRUCTURES_3000_SHA256


def test_abelian_structure_rejects_a_map_that_is_no_group():
    # x * x = x: no element of order 2, although 2^2 divides the order
    with pytest.raises(ValueError):
        abelian_structure(range(4), max, 0)
    # identity missing
    with pytest.raises(ValueError):
        abelian_structure(range(1, 5), lambda x, y: (x + y) % 4, 0)
    # 3 -> 2 -> 1 -> 0 under squaring: x^4 = 1 has 3 solutions, not a power of 2
    square = {0: 0, 1: 0, 2: 1, 3: 2}
    with pytest.raises(ValueError):
        abelian_structure(range(4), lambda x, y: square[x], 0)
    # 8 solutions of x^2 = 1 in a set of order 12: the chain's product is not 12
    with pytest.raises(ValueError):
        abelian_structure(range(12), lambda x, y: 0 if x < 8 else x, 0)


def test_narrow_to_ordinary_ratio_tracks_unit_norm():
    # the forms take the quotient without the continued fraction
    for d in fundamental_range(2, 5001):
        hp = class_group(d, narrow=True).h
        h = class_group(d, narrow=False).h
        ratio = hp // h
        assert hp == ratio * h and ratio in (1, 2)
        norm = fundamental_unit(d).norm
        assert (ratio == 2) == (norm == 1), d
        if any(p % 4 == 3 for p in _prime_factors(d)):
            assert ratio == 2, d


def test_unit_norm_is_minus_one_without_negative_factors_and_four_rank():
    # genus theory, as two_class_number uses it: with every prime
    # discriminant positive and narrow 4-rank 0, N(eps) = -1
    fields = 0
    for d in fundamental_range(5, 10**5):
        qs = factor_discriminant(d)
        if min(qs) > 0 and narrow_four_rank(character_matrix(qs)) == 0:
            assert fundamental_unit(d).norm == -1, d
            fields += 1
    assert fields == 7688


def test_unit_norm_matches_the_principal_cycle():
    # N(eps) = -1 exactly when the negated principal form lies on the cycle
    # of the principal form; the cycle count two_class_number reads is the
    # narrow class number, and it keeps the ordinary one equal exactly then
    for d in fundamental_range(5, 10001):
        one = principal_form(d)
        negated = reduce_form(BQForm(-one.a, one.b, -one.c))
        on_cycle = negated in cycle_of(reduce_form(one))
        assert (fundamental_unit(d).norm == -1) == on_cycle, d
        narrow, ordinary = qform_mod._class_numbers(d)
        assert narrow == class_group(d, narrow=True).h, d
        assert (ordinary == narrow) == on_cycle, d


def _prime_factors(n):
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def test_two_sylow_on_synthetic_divisor_chains():
    def shell(divs):
        h = math.prod(divs) if divs else 1
        return FormClassGroup(-23, False, h, divs, [])

    assert two_sylow(shell([12])) == [4]
    assert two_sylow(shell([3])) == []
    assert two_sylow(shell([2, 6])) == [2, 2]


def test_genus_characters_values():
    # the genus character of a prime discriminant factor q is n -> (q / n)
    qs = factor_discriminant(27993)
    assert qs == (-3, -7, -31, -43)
    assert kronecker(-7, 3) == -1
    assert all(kronecker(q, 1) == 1 for q in qs)
    qs40 = factor_discriminant(40)
    assert qs40 == (5, 8)
    mat = character_matrix(qs40)
    assert mat[0][1] == kronecker(5, 2) == -1
    # (5 / 10) = 0 at the factor prime 5: the matrix takes that entry
    # through the complementary factor instead
    assert kronecker(5, 10) == 0
    assert mat[0][0] == kronecker(8, 5) == -1


def test_genus_character_matrix_diagonal_convention():
    # column products are +1: the product of all genus characters is the
    # principal character, with the factor-prime value taken through the
    # complementary factor
    for d in (19176, 27993, 6072, 5740, -420, 13420):
        mat = character_matrix(factor_discriminant(d))
        n = len(mat)
        for j in range(n):
            assert math.prod(mat[i][j] for i in range(n)) == 1
    # Sign table for the all-negative discriminant 27993 with the
    # factor order (-3, -7, -31, -43): spot values
    qs = factor_discriminant(27993)
    mat = character_matrix(qs)
    assert qs == (-3, -7, -31, -43)
    assert mat[1][0] == kronecker(-7, 3) == -1
    assert mat[0][1] == kronecker(-3, 7) == 1


def test_c4_splittings_examples():
    assert c4_splittings(136) == [C4Splitting(8, 17)]
    assert c4_splittings(205) == [C4Splitting(5, 41)]
    assert c4_splittings(-23) == []
    # (8/3) = -1 kills {8, 141}; the other two splits fail likewise
    assert c4_splittings(1128) == []


def test_c4_splitting_implies_4_divides_narrow_h2():
    for d in fundamental_range(-800, 800):
        if not c4_splittings(d):
            continue
        g = class_group(d, narrow=True)
        h2 = math.prod(two_sylow(g)) if two_sylow(g) else 1
        assert h2 % 4 == 0, d


def test_genus_positivity_input_validation():
    assert genus_positivity(19176, 1)
    with pytest.raises(ValueError):
        genus_positivity(19176, 5)


# -- narrow 4-rank (Redei) against form enumeration ---------------------------


def _cl2_candidates(lo, hi):
    """Four-factor fundamental d in [lo, hi) that are not sums of two squares."""
    for d in range(lo, hi):
        try:
            factors = factor_discriminant(d)
        except NotFundamentalError:
            continue
        if len(factors) == 4 and not is_sum_of_two_squares(d):
            yield d, factors


def _cl2_is_22(d, bound=10**7):
    return two_sylow(class_group(d, narrow=False, bound=bound)) == [2, 2]


def test_narrow_four_rank_pins():
    assert narrow_four_rank(character_matrix(factor_discriminant(1596))) == 1  # Cl2 = (2, 4)
    assert narrow_four_rank(character_matrix(factor_discriminant(19176))) == 0  # Cl2 = (2, 2)


@pytest.mark.parametrize(
    "lo, hi, bound, count, rejects",
    [(5, 5 * 10**4, 10**7, 1388, 243), (10**7 + 1, 10**7 + 301, 2 * 10**7, 19, 5)],
)
def test_narrow_four_rank_matches_class_group(lo, hi, bound, count, rejects):
    # for these d the narrow 2-rank is 3 and N(eps) = +1, so Cl2 = (2, 2)
    # exactly when the narrow 4-rank is 0
    seen = []
    for d, factors in _cl2_candidates(lo, hi):
        is_22 = _cl2_is_22(d, bound)
        assert (narrow_four_rank(character_matrix(factors)) == 0) == is_22, d
        # genus theory alone gives h2 = 4 there, also above the class group bound
        assert not is_22 or two_class_number(d) == 4, d
        seen.append(is_22)
    assert (len(seen), seen.count(False)) == (count, rejects)


@settings(max_examples=100, deadline=None)
@given(four_factor_discriminants())
def test_narrow_four_rank_property(qs):
    d = math.prod(qs)
    assert 0 < d < 10**6 and not is_sum_of_two_squares(d)
    assert sorted(qs, key=abs) == list(factor_discriminant(d))
    # qs is in draw order, not sorted: the rank does not depend on the order
    assert (narrow_four_rank(character_matrix(qs)) == 0) == _cl2_is_22(d)


# -- 2-class numbers from genus theory against form enumeration ---------------


def _two_class_oracle(d, narrow):
    return _two_part(class_group(d, narrow=narrow).h)


def _assert_two_class_numbers_match_oracle(discs):
    for d in discs:
        for narrow in (False, True):
            assert two_class_number(d, narrow) == _two_class_oracle(d, narrow), (d, narrow)


def test_two_class_number_matches_class_group_up_to_3000():
    _assert_two_class_numbers_match_oracle(fundamental_range(-3000, 3001))


@pytest.fixture(scope="module")
def row_h2_calls():
    """The discriminant of every two_class_number call verify_invariant_row
    makes on the 151 row fields of bench/data/row_fields.json, in order."""
    path = Path(__file__).resolve().parent.parent / "bench" / "data" / "row_fields.json"
    calls = []

    def recording(d):
        calls.append(d)
        return two_class_number(d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify_mod, "two_class_number", recording)
        for field in json.loads(path.read_text())["fields"]:
            assert classify_mod.verify_invariant_row(field["d"]).matched
    return calls


def test_two_class_number_matches_class_group_on_row_corpus(row_h2_calls):
    discs = sorted(set(row_h2_calls))
    assert len(discs) == 485
    _assert_two_class_numbers_match_oracle(discs)


def test_two_class_number_enumerates_forms_only_for_positive_four_rank(
    row_h2_calls, monkeypatch
):
    enumerated = []
    original = qform_mod._class_numbers

    def counting(d):
        enumerated.append(d)
        return original(d)

    def refused(name):
        def call(*args):
            raise AssertionError(f"{name} builds the group")
        return call

    def refactoring(d):
        raise AssertionError(f"{d} is factored again")

    monkeypatch.setattr(qform_mod, "_class_numbers", counting)
    # the forms are counted, never composed into a group
    for name in ("abelian_structure", "compose", "class_group"):
        monkeypatch.setattr(qform_mod, name, refused(name))
    # factor_discriminant has already found d fundamental
    monkeypatch.setattr(qform_mod, "is_fundamental_discriminant", refactoring)
    for d in row_h2_calls:
        before = len(enumerated)
        two_class_number(d)
        positive = narrow_four_rank(character_matrix(factor_discriminant(d))) > 0
        assert enumerated[before:] == ([d] if positive else []), d
    assert (len(row_h2_calls), len(enumerated)) == (1057, 116)


@settings(max_examples=50, deadline=None)
@given(st.integers(-10**6 + 1, 10**6 - 1), st.booleans())
def test_two_class_number_matches_class_group_property(d, narrow):
    assume(is_fundamental_discriminant(d))
    assert two_class_number(d, narrow) == _two_class_oracle(d, narrow)


def test_two_class_number_errors_keep_their_order_and_messages():
    # d is checked first, also above the class group bound
    for d in (0, 1, 16, -16, -12, 10**7 + 2, 9 * 1111113):
        for narrow in (False, True):
            with pytest.raises(ValueError) as err:
                two_class_number(d, narrow)
            assert str(err.value) == f"{d} is not a fundamental discriminant"
    # only a positive 4-rank enumerates forms, and only there the bound holds
    d = 83333345
    assert narrow_four_rank(character_matrix(factor_discriminant(d))) > 0
    for narrow in (False, True):
        with pytest.raises(BoundExceededError) as err:
            two_class_number(d, narrow)
        assert str(err.value) == f"|{d}| exceeds class group bound 10000000"


def test_class_group_checks_d_before_the_bound():
    # as in two_class_number, a d that is no discriminant is named as such
    # above the bound too; only a fundamental d meets the bound
    for d in (10**8, -10**8, 10**7 + 2, 9 * 1111113):
        with pytest.raises(ValueError) as err:
            class_group(d)
        assert str(err.value) == f"{d} is not a fundamental discriminant"
    d = 10**8 + 1  # 17 * 5882353
    assert factor_discriminant(d) == (17, 5882353)
    for narrow in (False, True):
        with pytest.raises(BoundExceededError) as err:
            class_group(d, narrow)
        assert str(err.value) == f"|{d}| exceeds class group bound 10000000"
