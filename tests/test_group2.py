"""Group engine tests: tables, class-2 extensions, and the three checkers."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtower.group2 import (
    Class2Extension,
    InvalidTableError,
    TableGroup,
    abelian,
    abelian_invariants,
    build_64_150,
    central_quotients,
    check_derived_collapse,
    check_metabelian_descent,
    check_power_filtration,
    closure,
    collapse_library,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    generalized_quaternion,
    lower_central_series,
    maximal_subgroups,
    quaternion,
    quotient,
    semidihedral,
)


def _element_order(G, a):
    k, x = 1, a
    while x != 0:
        x = G.mul(x, a)
        k += 1
    return k


def test_build_64_150_presentation():
    T = build_64_150().table_group()
    assert T.order == 64
    # the generators (1 << i, 0) sit at indices 1, 2 and 4 of the table
    a1, a2, a3 = 1, 2, 4
    assert T.mul(a1, a1) == T.commutator(a1, a2)
    assert T.mul(a2, a2) == T.commutator(a2, a3)
    assert T.mul(a3, a3) == T.commutator(a1, a3)
    # fourth powers die: exponent 4
    sq = T.mul(a1, a1)
    assert T.mul(sq, sq) == 0


def test_build_64_150_structure():
    T = build_64_150().table_group()
    gp = derived_subgroup(T)
    assert len(gp) == 8
    assert abelian_invariants(T, gp) == (2, 2, 2)
    # derived subgroup sits inside the central component (indices y << 3)
    assert gp == frozenset(y << 3 for y in range(8))
    series = lower_central_series(T)
    assert [len(s) for s in series] == [64, 8, 1]
    assert len(T.center()) == 8


def test_extension_commutators_are_central():
    G = build_64_150()
    T = G.table_group()
    center = T.center()
    for a in range(0, 64, 7):
        for b in range(0, 64, 5):
            assert T.commutator(a, b) in center


def test_extension_validation():
    with pytest.raises(ValueError, match="diagonal"):
        Class2Extension(2, 1, ((1, 1), (1, 0)), (0, 0))
    with pytest.raises(ValueError, match="symmetric"):
        Class2Extension(2, 2, ((0, 1), (2, 0)), (0, 0))
    with pytest.raises(ValueError, match="exceed"):
        Class2Extension(2, 1, ((0, 2), (2, 0)), (0, 0))
    with pytest.raises(ValueError, match="one row per generator"):
        Class2Extension(3, 1, ((0, 1), (1, 0)), (0, 0, 0))


def test_extension_gives_dihedral_statistics():
    # a^2 = 1, b^2 = z = [a, b]: the order-8 dihedral group
    E = Class2Extension(2, 1, ((0, 1), (1, 0)), (0, 1))
    T = E.table_group()
    orders = sorted(_element_order(T, g) for g in range(T.order))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]
    assert len(derived_subgroup(T)) == 2


def test_table_validation_errors():
    with pytest.raises(InvalidTableError, match="closed"):
        TableGroup(((0, 1), (1,)))
    with pytest.raises(InvalidTableError, match="identity"):
        TableGroup(((1, 0), (0, 1)))
    with pytest.raises(InvalidTableError, match="inverse"):
        TableGroup(((0, 1), (1, 1)))
    with pytest.raises(InvalidTableError, match="associativity"):
        TableGroup(((0, 1, 2), (1, 2, 0), (2, 1, 0)))


def test_table_roundtrip(tmp_path):
    T = build_64_150().table_group()
    assert TableGroup.from_string(T.to_string()) == T
    path = tmp_path / "big.tbl"
    T.to_file(path)
    assert TableGroup.from_file(path) == T
    small = cyclic(6)
    assert TableGroup.from_string(small.to_string()) == small


def test_table_row_count_guard():
    with pytest.raises(InvalidTableError, match="rows"):
        TableGroup.from_string("2\n0 1\n")


@pytest.mark.parametrize(
    "group,orders",
    [
        (quaternion(), [8, 2, 1]),
        (dihedral(8), [8, 2, 1]),
        (dihedral(16), [16, 4, 2, 1]),
        (generalized_quaternion(16), [16, 4, 2, 1]),
        (semidihedral(16), [16, 4, 2, 1]),
        (abelian(2, 4), [8, 1]),
        (cyclic(16), [16, 1]),
    ],
)
def test_lower_central_series(group, orders):
    series = lower_central_series(group)
    assert [len(s) for s in series] == orders
    for earlier, later in zip(series, series[1:]):
        assert later < earlier


def test_lower_central_series_commutator_grading():
    # [G_i, G_j] <= G_(i+j), with terms beyond the chain read as trivial
    for G in (build_64_150().table_group(), dihedral(16), semidihedral(16)):
        series = lower_central_series(G)
        padded = series + [frozenset({0})] * len(series)
        for i, gi in enumerate(series, start=1):
            for j, gj in enumerate(series, start=1):
                target = padded[min(i + j, len(padded)) - 1]
                comms = {G.commutator(x, y) for x in gi for y in gj}
                assert closure(G, comms) <= target


def test_lower_central_series_ends_or_stalls():
    assert lower_central_series(cyclic(1)) == [frozenset({0})]
    with pytest.raises(ValueError, match="not nilpotent"):
        lower_central_series(dihedral(6))


@pytest.mark.parametrize(
    "group,count",
    [
        (abelian(2, 2), 3),
        (quaternion(), 3),
        (build_64_150().table_group(), 7),
        (dihedral(16), 3),
        (cyclic(8), 1),
    ],
)
def test_maximal_subgroup_counts(group, count):
    maxes = maximal_subgroups(group)
    assert len(maxes) == count
    order = group.order
    assert all(2 * len(m) == order for m in maxes)
    assert len(set(maxes)) == count


def test_quaternion_basics():
    Q8 = quaternion()
    assert sum(1 for g in range(8) if _element_order(Q8, g) == 2) == 1
    assert len(derived_subgroup(Q8)) == 2
    assert derived_subgroup(Q8) == Q8.center()


def test_quotient_and_invariants():
    D4 = dihedral(8)
    q, coset_of = quotient(D4, derived_subgroup(D4))
    assert q.order == 4
    assert abelian_invariants(q) == (2, 2)
    assert coset_of[0] == 0
    assert abelian_invariants(abelian(2, 4, 8)) == (2, 4, 8)
    assert abelian_invariants(cyclic(12)) == (12,)
    with pytest.raises(ValueError, match="abelian"):
        abelian_invariants(quaternion())
    with pytest.raises(ValueError, match="normal"):
        quotient(dihedral(12), closure(dihedral(12), [6]))


@st.composite
def divisor_chains(draw, max_order=64):
    """Invariant factor chains d1 | d2 | ... with d1 > 1 and product <= max_order."""
    chain: list[int] = []
    while draw(st.booleans()):
        # the next factor is a multiple of the last one and keeps the order small
        step = chain[-1] if chain else 1
        low, top = (1 if chain else 2), max_order // math.prod(chain) // step
        if top < low:
            break
        chain.append(step * draw(st.integers(low, top)))
    return tuple(chain)


@settings(max_examples=60, deadline=None)
@given(divisor_chains())
def test_abelian_invariants_recovers_construction(chain):
    assert abelian_invariants(abelian(*chain)) == chain


def test_derived_collapse_on_64_150():
    r = check_derived_collapse(build_64_150().table_group())
    assert r.applicable
    assert r.derived_order == 8
    assert r.qualifying_triple is None
    assert not r.counterexample
    assert r.holds


def test_derived_collapse_on_elementary_abelian():
    # trivial derived subgroup: qualifying triples exist and prove nothing
    r = check_derived_collapse(abelian(2, 2, 2))
    assert r.applicable
    assert r.derived_order == 1
    assert r.qualifying_triple is not None
    assert not r.counterexample


def test_derived_collapse_not_applicable():
    r = check_derived_collapse(quaternion())
    assert not r.applicable
    assert "rank" in r.reason


def test_derived_collapse_library_sweep():
    lib = collapse_library()
    assert len(lib) >= 10
    names = [name for name, _ in lib]
    assert "64.150" in names
    assert "D4xC2" in names and "SD16xC2" in names
    for name, g in lib:
        r = check_derived_collapse(g)
        assert r.applicable, name
        assert not r.counterexample, name
        if r.qualifying_triple is not None:
            assert r.derived_order == 1, name


def test_central_quotients_of_64_150():
    quotients = central_quotients(build_64_150().table_group())
    assert sorted(q.order for q in quotients) == [8] + [16] * 7 + [32] * 7
    smallest = min(quotients, key=lambda q: q.order)
    assert abelian_invariants(smallest) == (2, 2, 2)


def test_power_filtration_on_64_150():
    r = check_power_filtration(build_64_150().table_group())
    assert r.applicable
    assert r.generators is not None
    assert r.generator_chain == (True, True)
    assert r.power_chain == (True, True)
    assert r.holds


def test_power_filtration_chain_content():
    T = build_64_150().table_group()
    r = check_power_filtration(T)
    a1, a2, a3 = r.generators
    series = lower_central_series(T)
    squares = closure(T, [T.mul(a1, a1), T.mul(a2, a2), T.mul(a3, a3)])
    assert squares == series[1]
    fourths = closure(T, [T.power(a, 4) for a in (a1, a2, a3)])
    assert fourths == frozenset({0})
    assert closure(T, [T.mul(h, h) for h in series[1]]) == frozenset({0})


@pytest.mark.parametrize("group", [quaternion(), dihedral(16), abelian(2, 2, 16)])
def test_power_filtration_not_applicable(group):
    r = check_power_filtration(group)
    assert not r.applicable
    assert "triple" in r.reason
    assert not r.holds


def test_metabelian_descent_on_64_150():
    r = check_metabelian_descent(build_64_150().table_group())
    assert r.applicable
    assert r.invariants == (2, 2, 2)
    assert r.eight_rank == 0
    assert r.hypothesis_met
    assert r.second_derived_order == 1
    assert r.holds


def test_metabelian_descent_not_applicable():
    r = check_metabelian_descent(dihedral(16))
    assert not r.applicable
    assert not r.holds


def test_constructor_guards():
    with pytest.raises(ValueError):
        dihedral(7)
    with pytest.raises(ValueError):
        generalized_quaternion(12)
    with pytest.raises(ValueError):
        semidihedral(8)
    with pytest.raises(ValueError):
        cyclic(0)


def test_direct_product_order_and_center():
    G = direct_product(quaternion(), cyclic(2))
    assert G.order == 16
    assert len(G.center()) == 4
    assert len(derived_subgroup(G)) == 2


def test_table_group_power():
    T = dihedral(16)
    for g in (1, 3, 8, 11):
        acc = 0
        for e in range(1, 9):
            acc = T.mul(acc, g)
            assert T.power(g, e) == acc


# sha256 of to_string(), taken before the three constructors shared one builder
PINNED_TABLES = {
    ("dihedral", 8): "96a5a4672f20870227ffd72f083007d926cc65757708fde6898f5f494dfa004c",
    ("dihedral", 12): "e41af8c142cf14a19460ae05739802cfe368c70b0a332e9f81e518185c3c5288",
    ("dihedral", 16): "63a98757828f3d52c2b99142c7523a71045291d08876d1668822ad42396ea6ee",
    ("generalized_quaternion", 8): (
        "eaa288d0edce9e4e69c64509f53d1d9504c4d1f04eb41adb6781e44daeb9e054"),
    ("generalized_quaternion", 16): (
        "7bb358d34cf90c7df1e5e67fcae9cf0448c723a640fa8dea5254895222787470"),
    ("generalized_quaternion", 32): (
        "33415c72d63f9a04b5dfcaaf7a707129c9a48dda31e3acbef135f74bf6b53c69"),
    ("semidihedral", 16): "dd7c5b628934e609b927921da0e0152dd9c2d338d844190c316a30f3e8c775eb",
    ("semidihedral", 32): "ce3ba3d9642b556221a272795e500decc73ee23d423d58632591f6df95335741",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,order", sorted(PINNED_TABLES))
def test_metacyclic_tables_are_pinned(name, order):
    build = {"dihedral": dihedral, "generalized_quaternion": generalized_quaternion,
             "semidihedral": semidihedral}[name]
    assert _sha(build(order).to_string()) == PINNED_TABLES[name, order]


def test_collapse_library_tables_are_pinned():
    tables = "".join(T.to_string() for _, T in collapse_library())
    assert _sha(tables) == (
        "01301ca8bb40f216cf43af77d3e693e369a7d9fde455cbb7d217aabbf414d4ca"
    )


@st.composite
def extensions(draw):
    """Class2Extension maps: symmetric, zero diagonal, any squares."""
    r, s = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    value = st.integers(0, (1 << s) - 1)
    comm = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i):
            comm[i][j] = comm[j][i] = draw(value)
    squares = tuple(draw(value) for _ in range(r))
    return Class2Extension(r, s, tuple(map(tuple, comm)), squares)


@settings(max_examples=60, deadline=None)
@given(extensions())
def test_every_valid_extension_is_a_group(E):
    T = E.table_group()  # validates the table, associativity included
    r = E.rank
    elements = [(i & ((1 << r) - 1), i >> r) for i in range(E.order)]
    for a in elements:
        for b in elements:
            x, y = E.mul(a, b)
            assert T.mul(a[0] | (a[1] << r), b[0] | (b[1] << r)) == x | (y << r)
    # the 2-cocycle identity holds for every map: the product is associative
    top = [(x, 0) for x in range(1 << r)]
    for a in top:
        for b in top:
            for c in top:
                assert E.mul(E.mul(a, b), c) == E.mul(a, E.mul(b, c))


def _derived_quotient_by_subtable(G):
    """Invariants of G'/G'' from a hand-built table of G' (reference)."""
    gprime = derived_subgroup(G)
    gsecond = derived_subgroup(G, gprime)
    elems = sorted(gprime, key=lambda g: (g != 0, g))
    index = {g: i for i, g in enumerate(elems)}
    sub = TableGroup(tuple(tuple(index[G.mul(a, b)] for b in elems) for a in elems))
    q, _ = quotient(sub, frozenset(index[g] for g in gsecond))
    return abelian_invariants(q)


@pytest.mark.parametrize(
    "name,G",
    collapse_library() + [
        ("D16", dihedral(16)),
        ("Q16", generalized_quaternion(16)),
        ("SD16", semidihedral(16)),
        ("Q8xC2", direct_product(quaternion(), cyclic(2))),
    ],
)
def test_derived_quotient_image_matches_subtable(name, G):
    expected = _derived_quotient_by_subtable(G)
    gprime = derived_subgroup(G)
    q, coset_of = quotient(G, derived_subgroup(G, gprime))
    assert abelian_invariants(q, {coset_of[g] for g in gprime}) == expected
    r = check_metabelian_descent(G)
    if r.applicable:
        assert r.invariants == expected
