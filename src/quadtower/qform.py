"""Binary quadratic forms, class groups, and genus theory.

Forms (a, b, c) of fundamental discriminant d = b^2 - 4ac are reduced either
in the definite sense (d < 0) or onto cycles of reduced forms under the rho
operator (d > 0).  For d > 0 the form class group is the *narrow* class
group; the ordinary class group is its quotient by the class of the negated
principal form, which generates the kernel of the map onto it and is trivial
exactly when the fundamental unit has norm -1.  The forms decide that on
their own; this module runs no continued fraction.  Group structure is read
off the number of solutions of x^(p^k) = 1 for each prime power p^k dividing
the class number.

2-class numbers come from genus theory where it decides them: for t prime
discriminant factors the narrow 2-rank is t - 1, and when the Redei 4-rank is
0 the narrow 2-class number is 2^(t-1), halved for the ordinary group of
d > 0 exactly when some prime discriminant factor is negative.  The symbols
(q / p) of prime discriminants that genus theory reads have one owner,
`prime_symbol`.  Forms are enumerated only for a positive 4-rank, and there
the class number is counted, one class per reduced form (d < 0) or per
rho-cycle (d > 0), with no form composed.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .arith import (
    BoundExceededError,
    factor_discriminant,
    factorize,
    is_fundamental_discriminant,
    prime_of,
)

__all__ = [
    "BQForm",
    "FormClassGroup",
    "reduce_form",
    "compose",
    "principal_form",
    "class_group",
    "two_class_number",
    "two_sylow",
    "prime_symbol",
    "character_matrix",
    "narrow_four_rank",
    "genus_positivity",
    "c4_splittings",
    "abelian_structure",
]

DEFAULT_CLASS_BOUND = 10**7


@dataclass(frozen=True, order=True)
class BQForm:
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    # solve a*x = b (mod m); return (x0, step) parametrizing all solutions
    g = math.gcd(a, m)
    if b % g != 0:
        raise ValueError(f"no solution to {a} x = {b} mod {m}")
    return (b // g) * pow(a // g, -1, m // g) % m, m // g


def principal_form(d: int) -> BQForm:
    """Identity class representative of discriminant d."""
    if d < 0:
        k = d % 2
        return BQForm(1, k, (k * k - d) // 4)
    s = math.isqrt(d)
    b0 = s if (s - d) % 2 == 0 else s - 1
    return BQForm(1, b0, (b0 * b0 - d) // 4)


def is_reduced(f: BQForm) -> bool:
    d = f.disc
    a, b, c = f.a, f.b, f.c
    if d < 0:
        if a <= 0:
            return False
        if not (abs(b) <= a <= c):
            return False
        return b >= 0 or (abs(b) < a and a < c)
    # indefinite: 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b
    if b <= 0 or b * b >= d:
        return False
    t = 2 * abs(a)
    if (t + b) ** 2 <= d:
        return False
    return t <= b or (t - b) ** 2 < d


def _rho_b(b: int, c: int, s: int) -> int:
    # middle coefficient of rho(a, b, c) for s = isqrt(d): r = -b mod 2|c|,
    # in (sqrt(d) - 2|c|, sqrt(d)] when |c| <= s, as on a reduced cycle
    cc = abs(c)
    r = (-b) % (2 * cc)
    if cc > s:
        return r - 2 * cc if r > cc else r
    return r + 2 * cc * ((s - r) // (2 * cc))


def _rho(f: BQForm) -> BQForm:
    # one step along the reduction orbit / cycle of an indefinite form
    d = f.disc
    r = _rho_b(f.b, f.c, math.isqrt(d))
    return BQForm(f.c, r, (r * r - d) // (4 * f.c))


def reduce_form(f: BQForm) -> BQForm:
    """Reduce f; for d > 0 the result is some form on the equivalence cycle."""
    d = f.disc
    if d >= 0:
        if d == 0 or math.isqrt(d) ** 2 == d:
            raise ValueError(f"degenerate discriminant {d}")
        g = f
        size = abs(f.a) + abs(f.b) + abs(f.c)
        for _ in range(8 * size.bit_length() + 64):
            if is_reduced(g):
                return g
            g = _rho(g)
        raise BoundExceededError(f"reduction of {f} did not terminate")
    # definite case: classical normalize-and-swap loop, keep a > 0
    a, b, c = f.a, f.b, f.c
    if a < 0:
        raise ValueError("definite forms must be positive")
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            r = (a - b) // (2 * a)
            b2 = b + 2 * r * a
            c = a * r * r + b * r + c
            b = b2
            continue
        break
    if a == c and b < 0:
        b = -b
    return BQForm(a, b, c)


def cycle_of(f: BQForm) -> tuple[BQForm, ...]:
    """The full rho-cycle through a reduced indefinite form."""
    assert f.disc > 0 and is_reduced(f)
    out = [f]
    g = _rho(f)
    while g != f:
        out.append(g)
        g = _rho(g)
    return tuple(out)


def compose(f1: BQForm, f2: BQForm) -> BQForm:
    """Gauss composition of primitive forms of the same discriminant (raw)."""
    if f1.disc != f2.disc:
        raise ValueError("forms must share a discriminant")
    a1, b1, c1 = f1.a, f1.b, f1.c
    a2, b2, c2 = f2.a, f2.b, f2.c
    g = (b1 + b2) // 2
    h = -(b1 - b2) // 2
    w = math.gcd(math.gcd(a1, a2), g)
    s = a1 // w
    t = a2 // w
    u = g // w
    mu, nu = _solve_linmod(t * u, h * u + s * c1, s * t)
    lam = _solve_linmod(t * nu, h - t * mu, s)[0]
    k = mu + nu * lam
    ell = (k * t - h) // s
    m = (t * u * k - h * u - c1 * s) // (s * t)
    a3 = s * t
    b3 = w * u - (k * t + ell * s)
    c3 = k * ell - w * m
    out = BQForm(a3, b3, c3)
    assert out.disc == f1.disc
    return out


def _reduced_forms(d: int) -> list[tuple[int, int]]:
    """(a, b) of every reduced form (a, b, (b^2 - d) / 4a) of the
    fundamental discriminant d."""
    out = []
    if d < 0:
        for a in range(1, math.isqrt(-d // 3) + 1):
            for b in range(d % 2, a + 1, 2):
                num = b * b - d
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c < a:
                    continue
                out.append((a, b))
                if 0 < b < a < c:
                    out.append((a, -b))
        return out
    # reduced: |sqrt(d) - 2|a|| < b < sqrt(d), and then |c| lies in the same
    # range; |a c| = m = (d - b^2) / 4, so each divisor a <= sqrt(m) past the
    # range's start pairs with m / a, and the signs of a and c are opposite
    s = math.isqrt(d)
    for b in range(2 - (d % 2), s + 1, 2):
        m = (d - b * b) // 4
        for a in range((s - b) // 2 + 1, math.isqrt(m) + 1):
            if m % a == 0:
                out += [(a, b), (-a, b)]
                if a * a != m:
                    out += [(m // a, b), (-(m // a), b)]
    return out


@dataclass(frozen=True, eq=False)
class FormClassGroup:
    """Finite abelian form class group with explicit structure.

    For d > 0 the form classes make up the narrow class group; with
    narrow=False the quotient by the negated principal class is returned.
    elementary_divisors is the divisor chain d_1 | d_2 | ... (trivial group:
    empty list); multiply and identity give the group law on
    class_representatives.
    """

    discriminant: int
    narrow: bool
    h: int
    elementary_divisors: list[int]
    class_representatives: list[BQForm]
    multiply: Callable[[BQForm, BQForm], BQForm] | None = None
    identity: BQForm | None = None

    def __repr__(self) -> str:
        kind = "narrow" if self.narrow else "ordinary"
        return (f"FormClassGroup(d={self.discriminant}, {kind}, h={self.h}, "
                f"type={self.elementary_divisors})")


def _negated_principal_form(d: int) -> BQForm:
    one = principal_form(d)
    return BQForm(-one.a, one.b, -one.c)


def _check_bound(d: int) -> None:
    if abs(d) > DEFAULT_CLASS_BOUND:
        raise BoundExceededError(
            f"|{d}| exceeds class group bound {DEFAULT_CLASS_BOUND}"
        )


def class_group(d: int, narrow: bool = True) -> FormClassGroup:
    """Class group of the fundamental discriminant d by form enumeration;
    |d| > DEFAULT_CLASS_BOUND raises BoundExceededError."""
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    _check_bound(d)
    forms = [BQForm(a, b, (b * b - d) // (4 * a)) for a, b in _reduced_forms(d)]
    if d < 0:
        reps = sorted(forms)
        canon = reduce_form

        def mul(x, y):
            return reduce_form(compose(x, y))

        ident = reduce_form(principal_form(d))
    else:
        cycle_index: dict[BQForm, BQForm] = {}
        reps = []
        for f in forms:
            if f in cycle_index:
                continue
            cyc = cycle_of(f)
            # canonical rep: smallest form with positive leading coefficient
            rep = min(g for g in cyc if g.a > 0)
            reps.append(rep)
            for g in cyc:
                cycle_index[g] = rep
        reps.sort()

        def canon(f):
            g = reduce_form(f)
            return cycle_index[g]

        def mul(x, y):
            return canon(compose(x, y))

        ident = canon(principal_form(d))

    # the class of the totally negative principal form generates the kernel
    # of the narrow group onto the ordinary one; when it is not trivial (no
    # unit of norm -1), take the quotient by it
    neg = canon(_negated_principal_form(d)) if d > 0 and not narrow else ident
    if neg != ident:
        orbit = {x: min(x, mul(x, neg)) for x in reps}
        reps = sorted(set(orbit.values()))
        inner_mul = mul

        def mul(x, y):
            return orbit[inner_mul(x, y)]

        ident = orbit[ident]

    h = len(reps)
    divisors = abelian_structure(reps, mul, ident)
    return FormClassGroup(d, narrow if d > 0 else False, h, divisors, reps,
                          mul, ident)


def abelian_structure(elements, mul, ident) -> list[int]:
    """Divisor chain d_1 | d_2 | ... (trivial group: []) of a finite abelian
    group given by its elements and multiplication map.

    By the structure theorem, log_p(|G[p^k]| / |G[p^(k-1)]|) cyclic factors
    have order >= p^k, where G[n] = {x : x^n = 1}.  For each p^e exactly
    dividing h = |G|, every element is raised to the p-th power round after
    round and the new solutions of x^(p^k) = 1 are counted; a p-part of order
    p is cyclic and needs no powering.  Counts that do not fit an abelian
    group of order h raise ValueError.
    """
    elements = list(elements)
    h = len(elements)
    if elements.count(ident) != 1:
        raise ValueError("the identity must occur exactly once")
    chain: list[int] = []  # descending
    for p, e in factorize(h).items():
        ranks = [1] if e == 1 else _p_ranks(elements, mul, ident, p, e)
        chain += [1] * (ranks[0] - len(chain))
        for r in ranks:
            for i in range(r):
                chain[i] *= p
    return chain[::-1]


def _p_ranks(elements, mul, ident, p, e) -> list[int]:
    # ranks[k - 1] = number of cyclic factors of order >= p^k
    ranks: list[int] = []
    order, rest = 1, [x for x in elements if x != ident]  # order = |G[p^k]|
    while order < p**e:
        powered = []
        for x in rest:
            y = x
            for _ in range(p - 1):
                y = mul(y, x)
            powered.append(y)
        rest = [y for y in powered if y != ident]
        grown, r = order + len(powered) - len(rest), 0
        while order < grown:
            order, r = order * p, r + 1
        if order != grown or r == 0 or (ranks and r > ranks[-1]):
            raise ValueError(f"{grown} solutions of x^({p}^{len(ranks) + 1}) = 1 "
                             "do not fit an abelian group")
        ranks.append(r)
    if order != p**e:  # the chain's product would not be h
        raise ValueError(f"the {p}-part has order {order}, not {p**e}")
    return ranks


def _two_part(n: int) -> int:
    """Largest power of 2 dividing the positive integer n."""
    return n & -n


def two_sylow(cg: FormClassGroup) -> list[int]:
    """2-part of each elementary divisor, smallest first (trivial: [])."""
    return sorted(t for t in map(_two_part, cg.elementary_divisors) if t > 1)


def _class_numbers(d: int) -> tuple[int, int]:
    """(narrow, ordinary) class numbers of the fundamental discriminant d,
    counted without building the group.

    For d < 0 each reduced form is one class.  For d > 0 each rho-cycle of
    reduced forms is one narrow class; the negated principal form (-1, b0)
    lies on the principal cycle exactly when N(eps) = -1, and otherwise its
    class has order 2 and the ordinary group is the quotient by it.
    """
    forms = _reduced_forms(d)
    if d < 0:
        return len(forms), len(forms)
    s = math.isqrt(d)
    one = (1, s - (s - d) % 2)
    unseen = set(forms)
    cycles = 0
    for a, b in [one, *forms]:  # the principal cycle first
        if (a, b) not in unseen:
            continue
        cycles += 1
        while (a, b) in unseen:
            unseen.remove((a, b))
            c = (b * b - d) // (4 * a)
            a, b = c, _rho_b(b, c, s)
        if cycles == 1:
            halved = (-1, one[1]) in unseen
    return cycles, cycles // 2 if halved else cycles


def two_class_number(d: int, narrow: bool = False) -> int:
    """Order of the 2-Sylow subgroup of the class group of discriminant d.

    Genus theory: for t prime discriminant factors the narrow 2-Sylow has
    rank t - 1, and its 4-rank is `narrow_four_rank` (Redei).  When the
    4-rank is 0 the 2-Sylow is elementary, so h2+ = 2^(t-1).  The ordinary
    group of d > 0 is the narrow one when the fundamental unit has norm -1
    and its half otherwise, and here the factors decide which.  A negative
    prime discriminant factor rules out norm -1.  With every factor
    positive, the class of the negated principal form takes the value +1
    under every genus character, so it lies in the principal genus and is a
    square; were it not trivial, its square root would have order 4 and the
    4-rank would be positive.  So it is trivial and N(eps) = -1.  Only a
    positive 4-rank needs the forms: the class number is counted, one class
    per reduced form for d < 0 and per rho-cycle for d > 0, halved when the
    negated principal form is off the principal cycle, and no form is
    composed.  There |d| > DEFAULT_CLASS_BOUND raises BoundExceededError, as
    in `class_group`.
    """
    qs = factor_discriminant(d)  # raises unless d is fundamental
    if narrow_four_rank(character_matrix(qs)):
        _check_bound(d)
        return _two_part(_class_numbers(d)[0 if narrow else 1])
    h2 = 2 ** (len(qs) - 1)
    if d < 0 or narrow or min(qs) > 0:
        return h2
    return h2 // 2


def prime_symbol(q: int, r: int) -> int:
    """The symbol (q / p) of prime discriminants q and r, where p is the
    prime of r; q and r are not both even.

    For odd p it is one power by Euler's criterion, q^((p - 1) / 2) mod p,
    which is 1, p - 1 or, for a repeated prime, 0; for the even q none is
    needed: (-4 / p) = (-1 / p) = +1 exactly when r > 0, and (8 / p) =
    (2 / p) = (r / 2), negated for -8 when r < 0.  For p = 2, (q / 2) = +1
    exactly when q = 1 mod 8.
    """
    if r % 2 == 0:
        return 1 if q % 8 == 1 else -1
    if q % 2:
        p = -r if r < 0 else r
        s = pow(q, p >> 1, p)
        return -1 if s > 1 else s
    s = 1 if q == -4 or r % 8 == 1 else -1
    return -s if q < 0 and r < 0 else s


def character_matrix(qs: Sequence[int]) -> list[list[int]]:
    """Symbols (q_i / p_j) = `prime_symbol`(q_i, q_j) of the prime
    discriminants qs, by position.

    Reciprocity leaves one Euler power per pair of odd factors:
    (q_j / p_i) = (q_i / p_j), negated when both are negative.  The diagonal
    (q_i / p_i) = prod_{l != i} (q_l / p_i) is the product of its column.
    """
    n = len(qs)
    mat = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = prime_symbol(qs[i], qs[j])
            if qs[i] % 2 and qs[j] % 2:
                mat[j][i] = -mat[i][j] if qs[i] < 0 and qs[j] < 0 else mat[i][j]
            else:
                mat[j][i] = prime_symbol(qs[j], qs[i])
    for i in range(n):
        for l in range(n):
            if l != i:
                mat[i][i] *= mat[l][i]
    return mat


def narrow_four_rank(mat: Sequence[Sequence[int]]) -> int:
    """4-rank of the narrow class group, from the character matrix of the
    prime discriminant factors.

    Redei: it is t - 1 - rank over F_2 of the t x t Redei matrix
    R[i][j] = [(d_j / p_i) = -1] (j != i), whose diagonal makes each row
    sum to 0.  R is the additive transpose of the genus character matrix,
    so both share one rank.
    """
    rows = [sum(1 << j for j, v in enumerate(row) if v == -1) for row in mat]
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return len(mat) - 1 - rank


def genus_positivity(d: int, delta: int) -> bool:
    """True when every genus character of d takes value +1 on delta.

    delta must be a product of distinct factor primes of d (as the square
    root decompositions of units produce); character values at a factor
    prime use the complementary convention.
    """
    qs = factor_discriminant(d)
    mat = character_matrix(qs)
    rest = abs(delta)
    support = []
    for j, q in enumerate(qs):
        p = prime_of(q)
        if rest % p == 0:
            support.append(j)
            rest //= p
    if rest != 1:
        raise ValueError(f"{delta} is not a product of factor primes of {d}")
    for i in range(len(qs)):
        v = 1
        for j in support:
            v *= mat[i][j]
        if v != 1:
            return False
    return True


@dataclass(frozen=True)
class C4Splitting:
    """A factorization d = delta1 * delta2 with all cross symbols +1."""

    delta1: int
    delta2: int


def c4_splittings(d: int) -> list[C4Splitting]:
    """All splittings d = delta1*delta2 into coprime discriminant parts with
    (delta1/p) = +1 for every prime p | delta2 and conversely.

    delta1 is the part containing the prime discriminant of least absolute
    value.  Nonempty output forces 4 | h2+(d) (a cyclic quartic unramified
    extension exists).  The symbol of a part at p_j is the product of its
    factors' `character_matrix` entries in column j.
    """
    qs = factor_discriminant(d)
    mat = character_matrix(qs)
    n = len(qs)
    out = []
    for mask in range(1, 2 ** (n - 1)):
        # factor qs[0] always goes to delta1: each unordered split once
        side = [(mask << 1) >> i & 1 for i in range(n)]
        if all(math.prod(mat[i][j] for i in range(n) if side[i] != side[j]) == 1
               for j in range(n)):
            d1 = math.prod(q for q, s in zip(qs, side) if not s)
            out.append(C4Splitting(d1, d // d1))
    return out
