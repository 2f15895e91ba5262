"""Finite 2-group engine backing the tower-length group theory.

Every algorithm takes a TableGroup, a validated multiplication table.
Class2Extension, a class-2 central extension of F2^r by F2^s given by a
commutator map and a square map, only builds such tables. The
distinguished order-64 group with presentation a1^2 = c12, a2^2 = c23,
a3^2 = c13 (commutators central and elementary) lives here as
build_64_150, together with the three structural checkers used on it:
derived collapse over maximal-subgroup triples, the power filtration of the
lower central series, and metabelian descent under an 8-rank hypothesis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .qform import abelian_structure

__all__ = [
    "TableGroup",
    "Class2Extension",
    "InvalidTableError",
    "Subgroup",
    "CollapseReport",
    "FiltrationReport",
    "DescentReport",
    "build_64_150",
    "closure",
    "derived_subgroup",
    "lower_central_series",
    "maximal_subgroups",
    "abelian_invariants",
    "quotient",
    "check_derived_collapse",
    "check_power_filtration",
    "check_metabelian_descent",
    "cyclic",
    "dihedral",
    "semidihedral",
    "generalized_quaternion",
    "quaternion",
    "direct_product",
    "abelian",
    "central_quotients",
    "collapse_library",
]

Subgroup = frozenset


class InvalidTableError(ValueError):
    """The multiplication table is not a group table."""


@dataclass(frozen=True)
class TableGroup:
    """A finite group as an order x order table of element indices.

    Element 0 is the identity. Validation checks closure, identity,
    inverses, and associativity (Light's test over a generating set, so
    tables up to order 256 validate quickly).
    """

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.table)
        if n == 0:
            raise InvalidTableError("empty table")
        for row in self.table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise InvalidTableError("table is not a closed n x n array")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise InvalidTableError("element 0 is not a two-sided identity")
        for i in range(n):
            if 0 not in self.table[i]:
                raise InvalidTableError(f"element {i} has no inverse")
        object.__setattr__(
            self, "_inv", tuple(row.index(0) for row in self.table)
        )
        gens = self._generating_set()
        t = self.table
        for g in gens:
            for y in range(n):
                gy = t[g][y]
                row_g = t[g]
                row_y = t[y]
                for z in range(n):
                    if t[gy][z] != row_g[row_y[z]]:
                        raise InvalidTableError(
                            f"associativity fails at ({g},{y},{z})"
                        )

    def _generating_set(self) -> list[int]:
        n = len(self.table)
        gens: list[int] = []
        span = {0}
        for g in range(1, n):
            if g in span:
                continue
            gens.append(g)
            span = set(closure(self, gens))
            if len(span) == n:
                break
        return gens

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, a: int, g: int) -> int:
        """g^-1 a g"""
        return self.mul(self.mul(self.inv(g), a), g)

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b"""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def power(self, a: int, e: int) -> int:
        result = 0
        base = a
        while e > 0:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # built by the first call that needs them and kept in the instance
    # __dict__, which lies outside __eq__, __hash__ and __repr__, so the
    # checks run on one group object build each once
    @functools.cached_property
    def _derived(self) -> Subgroup:
        return derived_subgroup(self, range(self.order))

    @functools.cached_property
    def _lower_central(self) -> tuple[Subgroup, ...]:
        return tuple(lower_central_series(self))

    @functools.cached_property
    def _presentation_triple(self) -> tuple[int, int, int] | None:
        return _find_presentation_triple(self, self._lower_central)

    def center(self) -> Subgroup:
        n = self.order
        return frozenset(
            z for z in range(n)
            if all(self.table[z][g] == self.table[g][z] for g in range(n))
        )

    @classmethod
    def from_string(cls, text: str) -> "TableGroup":
        """Parse the table file format; a malformed line is named by number."""
        lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1)
                 if ln.strip()]
        if not lines:
            raise InvalidTableError("empty input")
        numbers = []
        for k, ln in lines:
            try:
                numbers.append(tuple(int(v) for v in ln.split()))
            except ValueError:
                raise InvalidTableError(
                    f"line {k}: expected integers, got {ln.strip()!r}"
                ) from None
        (n, *extra), rows = numbers[0], numbers[1:]
        if extra:
            raise InvalidTableError(f"line {lines[0][0]}: expected the order alone")
        if len(rows) != n:
            raise InvalidTableError(f"expected {n} table rows, got {len(rows)}")
        for (k, _), row in zip(lines[1:], rows):
            if len(row) != n:
                raise InvalidTableError(f"line {k}: expected {n} entries, got {len(row)}")
        return cls(tuple(rows))

    def to_string(self) -> str:
        lines = [str(self.order)]
        lines.extend(" ".join(str(v) for v in row) for row in self.table)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_file(cls, path: str | Path) -> "TableGroup":
        try:
            return cls.from_string(Path(path).read_text(encoding="utf-8"))
        except (InvalidTableError, UnicodeDecodeError) as exc:
            raise InvalidTableError(f"{path}: {exc}") from None

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(self.to_string(), encoding="utf-8")


@dataclass(frozen=True)
class Class2Extension:
    """Central extension of F2^rank by F2^central_rank, class at most 2.

    Elements are pairs (x, y) of bitmasks. Multiplication collects words
    into normal form: commutator bits for every transposed generator pair,
    plus the square carry when equal generators merge:

        (x, y)(x', y') = (x ^ x', y ^ y' ^ f(x, x'))

    with f summing commutator_map[i][j] over bit pairs i > j set in (x, x')
    and square_map[i] over bits set in both. The product is associative
    exactly when f satisfies the 2-cocycle identity, and table_group()
    validates the table it builds.
    """

    rank: int
    central_rank: int
    commutator_map: tuple[tuple[int, ...], ...]
    square_map: tuple[int, ...]

    def __post_init__(self):
        r, s = self.rank, self.central_rank
        if len(self.commutator_map) != r or len(self.square_map) != r:
            raise ValueError("maps must have one row per generator")
        for i, row in enumerate(self.commutator_map):
            if len(row) != r:
                raise ValueError("commutator map must be square")
            if row[i] != 0:
                raise ValueError("commutator map must vanish on the diagonal")
            for j in range(r):
                if row[j] != self.commutator_map[j][i]:
                    raise ValueError(
                        "commutator map must be symmetric (central "
                        "involutions make orientation immaterial)"
                    )
                if not 0 <= row[j] < (1 << s):
                    raise ValueError("commutator values exceed the center")
        for v in self.square_map:
            if not 0 <= v < (1 << s):
                raise ValueError("square values exceed the center")
        # No cocycle check is needed: _cocycle is F2-bilinear for any maps,
        # and every bilinear f satisfies f(x, x') + f(x + x', x'') =
        # f(x', x'') + f(x, x' + x''). TableGroup re-checks associativity.

    def _cocycle(self, x: int, xp: int) -> int:
        carry = 0
        for i in range(self.rank):
            if not (x >> i) & 1:
                continue
            for j in range(i):
                if (xp >> j) & 1:
                    carry ^= self.commutator_map[i][j]
            if (xp >> i) & 1:
                carry ^= self.square_map[i]
        return carry

    @property
    def order(self) -> int:
        return 1 << (self.rank + self.central_rank)

    def mul(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (a[0] ^ b[0], a[1] ^ b[1] ^ self._cocycle(a[0], b[0]))

    def table_group(self) -> TableGroup:
        """The table on indices x | (y << rank)."""
        r = self.rank
        elements = [(i & ((1 << r) - 1), i >> r) for i in range(self.order)]
        rows = tuple(
            tuple(x | (y << r) for x, y in (self.mul(a, b) for b in elements))
            for a in elements
        )
        return TableGroup(rows)


def build_64_150() -> Class2Extension:
    """The order-64, class-2 group with a1^2 = c12, a2^2 = c23, a3^2 = c13.

    Central basis bits: 0 = c12, 1 = c23, 2 = c13. The derived subgroup is
    the full center component, elementary of order 8, and the third lower
    central term vanishes in this model.
    """
    c12, c23, c13 = 1, 2, 4
    commutators = (
        (0, c12, c13),
        (c12, 0, c23),
        (c13, c23, 0),
    )
    squares = (c12, c23, c13)
    return Class2Extension(3, 3, commutators, squares)


# -- subgroup machinery -------------------------------------------------------


def closure(G: TableGroup, gens: Iterable[int]) -> Subgroup:
    """Subgroup generated by gens (finite, so products alone suffice)."""
    elements = {0}
    gens = [g for g in set(gens) if g != 0]
    frontier = list(gens)
    elements.update(frontier)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.mul(x, g)
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    return frozenset(elements)


def derived_subgroup(G: TableGroup, members: Iterable[int] | None = None) -> Subgroup:
    """Derived subgroup of G, or of the subgroup on the given members; G's
    own is built once per TableGroup object and kept on it."""
    if members is None:
        return G._derived
    members = list(members)
    comms = {G.commutator(a, b) for a in members for b in members}
    return closure(G, comms)


def lower_central_series(G: TableGroup) -> list[Subgroup]:
    """[G, G2, G3, ...] down to and including the trivial subgroup."""
    series = [frozenset(range(G.order))]
    while series[-1] != {0}:
        current = series[-1]
        # [G_i, G] lies in the normal subgroup G_i: each step shrinks or stalls
        nxt = closure(
            G, {G.commutator(x, g) for x in current for g in range(G.order)}
        )
        if nxt == current:
            raise ValueError("lower central series stalled: not nilpotent")
        series.append(nxt)
    return series


def _frattini_quotient(G: TableGroup) -> tuple[Subgroup, list[int], dict[int, int]]:
    """(Frattini subgroup G^2, F2-basis elements, element -> coordinates)."""
    phi = closure(G, {G.mul(g, g) for g in range(G.order)})
    basis: list[int] = []
    span = set(phi)
    for g in range(G.order):
        if g not in span:
            basis.append(g)
            span = set(closure(G, set(phi) | set(basis) | {g}))
            if len(span) == G.order:
                break
    coords: dict[int, int] = {}
    for bits in range(1 << len(basis)):
        rep = 0
        for i in range(len(basis)):
            if (bits >> i) & 1:
                rep = G.mul(rep, basis[i])
        for f in phi:
            coords[G.mul(rep, f)] = bits
    if len(coords) != G.order:
        raise AssertionError("Frattini coset decomposition is not a partition")
    return phi, basis, coords


def maximal_subgroups(G: TableGroup) -> list[Subgroup]:
    """All index-2 subgroups, as kernels of the nonzero maps G -> C2."""
    _, basis, coords = _frattini_quotient(G)
    k = len(basis)
    result = []
    for functional in range(1, 1 << k):
        kernel = frozenset(
            g for g, bits in coords.items()
            if bin(bits & functional).count("1") % 2 == 0
        )
        result.append(kernel)
    return result


def quotient(G: TableGroup, N: Subgroup) -> tuple[TableGroup, dict[int, int]]:
    """Quotient by a normal subgroup; returns (G/N, element -> coset index)."""
    for n in N:
        for g in range(G.order):
            if G.conj(n, g) not in N:
                raise ValueError(f"subgroup is not normal: {n}^{g} escapes")
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    # element 0 is processed first, so the identity coset gets index 0
    for g in range(G.order):
        if g in coset_of:
            continue
        idx = len(reps)
        for n in N:
            coset_of[G.mul(g, n)] = idx
        reps.append(g)
    rows = tuple(
        tuple(coset_of[G.mul(a, b)] for b in reps) for a in reps
    )
    return TableGroup(rows), coset_of


def abelian_invariants(G: TableGroup, members: Iterable[int] | None = None) -> tuple[int, ...]:
    """Invariant factors (ascending) of an abelian (sub)group.

    The divisor chain comes from qform.abelian_structure, which counts the
    solutions of x^(p^k) = 1 and also gives form class group structure.
    """
    sub = set(members) if members is not None else set(range(G.order))
    for a in sub:
        for b in sub:
            if G.mul(a, b) != G.mul(b, a):
                raise ValueError("abelian_invariants needs an abelian group")
    return tuple(abelian_structure(sub, G.mul, 0))


# -- checkers -----------------------------------------------------------------


@dataclass(frozen=True)
class CollapseReport:
    applicable: bool
    reason: str
    derived_order: int
    qualifying_triple: tuple[int, int, int] | None
    counterexample: bool

    @property
    def holds(self) -> bool:
        return self.applicable and not self.counterexample


def check_derived_collapse(G: TableGroup) -> CollapseReport:
    """Search maximal-subgroup triples that would force a trivial derived group.

    For a 2-group with rank-3 Frattini quotient: if three distinct maximal
    subgroups H1, H2, H3 with H1 meet H2 inside H3 all have derived subgroup
    equal to G', then G' must be trivial. A qualifying triple found while
    G' != 1 would be a counterexample; the expectation is zero over any
    library of groups.
    """
    maximals = maximal_subgroups(G)
    gprime = derived_subgroup(G)
    # a rank-r Frattini quotient has 2^r - 1 maximal subgroups
    rank = len(maximals).bit_length()
    if rank != 3:
        return CollapseReport(
            False, f"needs rank-3 Frattini quotient, got rank {rank}",
            len(gprime), None, False,
        )
    derived = [derived_subgroup(G, H) for H in maximals]
    qualifying = None
    for i, j in combinations(range(len(maximals)), 2):
        if derived[i] != gprime or derived[j] != gprime:
            continue
        meet = maximals[i] & maximals[j]
        for k in range(len(maximals)):
            if k in (i, j) or derived[k] != gprime:
                continue
            if meet <= maximals[k]:
                qualifying = (i, j, k)
                break
        if qualifying:
            break
    if qualifying is None:
        return CollapseReport(
            True, "no qualifying triple of maximal subgroups", len(gprime),
            None, False,
        )
    return CollapseReport(
        True,
        "qualifying triple found"
        + ("" if len(gprime) == 1 else " with nontrivial derived subgroup"),
        len(gprime),
        qualifying,
        len(gprime) != 1,
    )


def _find_presentation_triple(G: TableGroup,
                              series: Sequence[Subgroup]) -> tuple[int, int, int] | None:
    """A generating triple with a1^2 = c12, a2^2 = c23, a3^2 = c13 mod G3,
    G3 read off series, the lower central series of G."""
    G3 = series[2] if len(series) > 2 else frozenset({0})
    if G.order // len(G3) != 64:
        return None

    def congruent(a: int, b: int) -> bool:
        return G.mul(G.inv(a), b) in G3

    n = G.order
    for a1 in range(1, n):
        sq1 = G.mul(a1, a1)
        for a2 in range(1, n):
            if a2 == a1 or not congruent(sq1, G.commutator(a1, a2)):
                continue
            sq2 = G.mul(a2, a2)
            for a3 in range(1, n):
                if a3 in (a1, a2):
                    continue
                if not congruent(sq2, G.commutator(a2, a3)):
                    continue
                if not congruent(G.mul(a3, a3), G.commutator(a1, a3)):
                    continue
                if len(closure(G, [a1, a2, a3])) == n:
                    return (a1, a2, a3)
    return None


@dataclass(frozen=True)
class FiltrationReport:
    applicable: bool
    reason: str
    generators: tuple[int, int, int] | None
    generator_chain: tuple[bool, ...]
    power_chain: tuple[bool, ...]

    @property
    def holds(self) -> bool:
        return (
            self.applicable
            and all(self.generator_chain)
            and all(self.power_chain)
        )


def check_power_filtration(G: TableGroup) -> FiltrationReport:
    """Verify G_j = <a_i^(2^(j-1))> = G_2^(2^(j-2)) down the central series.

    Applicable when some generating triple satisfies the square-commutator
    presentation modulo G3 and |G/G3| = 64; the triple is found by search.
    """
    series = G._lower_central
    triple = G._presentation_triple
    if triple is None:
        return FiltrationReport(
            False, "no generating triple matches the presentation mod G3",
            None, (), (),
        )
    gen_ok: list[bool] = []
    pow_ok: list[bool] = []
    g2 = series[1]
    # the series ends at the trivial subgroup, so the chains stop there
    for j, gj in enumerate(series[1:], start=2):
        from_gens = closure(G, [G.power(a, 1 << (j - 1)) for a in triple])
        gen_ok.append(from_gens == gj)
        from_powers = closure(G, [G.power(h, 1 << (j - 2)) for h in g2])
        pow_ok.append(from_powers == gj)
    return FiltrationReport(True, "presentation triple found", triple,
                            tuple(gen_ok), tuple(pow_ok))


@dataclass(frozen=True)
class DescentReport:
    applicable: bool
    reason: str
    invariants: tuple[int, ...]
    eight_rank: int
    hypothesis_met: bool
    second_derived_order: int | None

    @property
    def holds(self) -> bool:
        return self.applicable and self.hypothesis_met and self.second_derived_order == 1


def check_metabelian_descent(G: TableGroup) -> DescentReport:
    """When G'/G'' has 8-rank 0 (all factors <= 4), G'' must vanish."""
    if G._presentation_triple is None:
        return DescentReport(
            False, "no generating triple matches the presentation mod G3",
            (), 0, False, None,
        )
    gprime = derived_subgroup(G)
    gsecond = derived_subgroup(G, gprime)
    # G'' is characteristic, so normal in G; G'/G'' is the image of G' in G/G''
    q, coset_of = quotient(G, gsecond)
    invariants = abelian_invariants(q, {coset_of[g] for g in gprime})
    eight_rank = sum(1 for m in invariants if m % 8 == 0)
    if eight_rank > 0:
        return DescentReport(
            True, "hypothesis fails: G'/G'' has positive 8-rank",
            invariants, eight_rank, False, len(gsecond),
        )
    return DescentReport(
        True, "8-rank 0, checking G'' trivial", invariants, 0, True,
        len(gsecond),
    )


# -- constructors -------------------------------------------------------------


def cyclic(n: int) -> TableGroup:
    if n < 1:
        raise ValueError("order must be positive")
    return TableGroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def _metacyclic(order: int, twist: int, square: int) -> TableGroup:
    """<a, b | a^m, b a b^-1 = a^twist, b^2 = a^square> with m = order / 2.

    Element e*m + i is a^i b^e, so (a^i b^e)(a^j b^f) = a^(i + twist^e j) b^(e+f).
    """
    m = order // 2

    def mul(a: int, b: int) -> int:
        e, i = divmod(a, m)
        f, j = divmod(b, m)
        k = i + (j if e == 0 else twist * j)
        if e and f:
            return (k + square) % m
        return (e + f) * m + k % m

    return TableGroup(tuple(tuple(mul(a, b) for b in range(order)) for a in range(order)))


def dihedral(order: int) -> TableGroup:
    """Dihedral group of the given (even, >= 4) order."""
    if order < 4 or order % 2:
        raise ValueError("dihedral groups here have even order >= 4")
    return _metacyclic(order, -1, 0)


def generalized_quaternion(order: int) -> TableGroup:
    """Generalized quaternion group of order 2^n >= 8."""
    if order < 8 or order & (order - 1):
        raise ValueError("order must be a power of 2, at least 8")
    return _metacyclic(order, -1, order // 4)


def quaternion() -> TableGroup:
    return generalized_quaternion(8)


def semidihedral(order: int) -> TableGroup:
    """Semidihedral group of order 2^n >= 16."""
    if order < 16 or order & (order - 1):
        raise ValueError("order must be a power of 2, at least 16")
    return _metacyclic(order, order // 4 - 1, 0)


def direct_product(A: TableGroup, B: TableGroup) -> TableGroup:
    nb = B.order

    def mul(a: int, b: int) -> int:
        ai, aj = divmod(a, nb)
        bi, bj = divmod(b, nb)
        return A.mul(ai, bi) * nb + B.mul(aj, bj)

    n = A.order * nb
    return TableGroup(tuple(tuple(mul(a, b) for b in range(n)) for a in range(n)))


def abelian(*invariants: int) -> TableGroup:
    group = cyclic(1)
    for m in invariants:
        group = direct_product(group, cyclic(m))
    return group


def central_quotients(G: TableGroup) -> list[TableGroup]:
    """Quotients of G by every nontrivial subgroup of its center."""
    center = sorted(G.center())
    max_gens = max(1, (len(center) - 1).bit_length())
    normal: set[Subgroup] = set()
    for size in range(1, max_gens + 1):
        for seed in combinations(center, size):
            sub = closure(G, seed)
            if sub != frozenset({0}):
                normal.add(sub)
    ordered = sorted(normal, key=lambda s: (len(s), sorted(s)))
    return [quotient(G, N)[0] for N in ordered]


def collapse_library() -> list[tuple[str, TableGroup]]:
    """The derived-collapse sweep suite: 2-groups with rank-3 abelianization.

    Every abelian group of order at most 64 with exactly three invariant
    factors, the four classical extensions with a C2 factor pinned on, the
    order-64 distinguished group, and all of its central quotients.
    """
    groups: list[tuple[str, TableGroup]] = [
        ("C2xC2xC2", abelian(2, 2, 2)),
        ("C2xC2xC4", abelian(2, 2, 4)),
        ("C2xC2xC8", abelian(2, 2, 8)),
        ("C2xC4xC4", abelian(2, 4, 4)),
        ("C2xC2xC16", abelian(2, 2, 16)),
        ("C2xC4xC8", abelian(2, 4, 8)),
        ("C4xC4xC4", abelian(4, 4, 4)),
        ("D4xC2", direct_product(dihedral(8), cyclic(2))),
        ("Q8xC2", direct_product(quaternion(), cyclic(2))),
        ("D8xC2", direct_product(dihedral(16), cyclic(2))),
        ("SD16xC2", direct_product(semidihedral(16), cyclic(2))),
    ]
    big = build_64_150().table_group()
    groups.append(("64.150", big))
    for i, q in enumerate(central_quotients(big), start=1):
        groups.append((f"64.150/Z{i}(order {q.order})", q))
    return groups
