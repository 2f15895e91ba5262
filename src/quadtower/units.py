"""Fundamental units, the delta invariant, square-root decompositions.

The fundamental unit of a real quadratic order is read off the continued
fraction of the standard generator (p0 + sqrt(m))/q0.  Its period ends where
the complete quotient's denominator returns to q0, so the expansion keeps
O(1) integers, and the parity of the period is the sign of N(eps).  It is
the package's only continued fraction.  For norm +1 units, Hilbert 90 gives
sqrt(eps) = (1 + eps)/sqrt(N(1 + eps)), so eps has a square root of the
shape (a sqrt(m1) + b sqrt(m2))/2 with m1 the squarefree kernel delta of
N(1+eps); the associated sign (a^2 m1 - b^2 m2)/4 = +-1 reproduces the
classical Legendre-symbol identities.  sqrt_unit_decomposition builds
this radical form once per unit object and keeps it on the unit;
delta_invariant reads delta off it, and the unit indices read the same
radicals.  Unit
indices q(K/Q) of real multiquadratic fields are exact: K is saturated at 2
by testing which products of subfield fundamental units are squares in K.  A
product of original norm +1 units is decided from those radical forms, as in
Kubota (1956) and Wada (1966): its root lies in K exactly when the
squarefree kernel of the product of the deltas is 1 or the radicand of a
quadratic subfield of K, and is then the product of the radical forms,
expanded on K's basis with multiplications only.  Every other product, one
with a norm -1 unit or a root swapped in earlier, gets its square root found
exactly, on integer coefficients over one common denominator, by descending
through relative norms to Q, as in Wada's unit-group algorithm for
multiquadratic fields.  Only products that pass a quadratic-character filter
are decided at all, as in the number field sieve (Adleman 1991;
Buhler-Lenstra-Pomerance 1993): at an odd prime p dividing no m_i modulo
which every m_i is a square, the least roots of the m_i mod p define a ring
map from the p-integral elements of K, units among them, onto F_p.  A square
maps to a square, so a product whose image has Legendre symbol -1 is no
square, and the radicals or the exact root search still decide every other
product.  One table per prime gives the roots and the symbols.  A field and
its subfields read one CharacterTable, the characters of the largest field
restricted to each subfield, so the primes are walked once and each
subfield unit's character vector is computed once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .arith import (
    BoundExceededError,
    _primes_upto,
    discriminant_of,
    factorize,
    is_fundamental_discriminant,
    radicand,
    squarefree_kernel,
)

__all__ = [
    "QuadUnit",
    "SqrtUnitDecomposition",
    "NormMinusOneError",
    "DecompositionError",
    "fundamental_unit",
    "delta_invariant",
    "sqrt_unit_decomposition",
    "sqrt_conjugate_sign",
    "unit_conjugate_sign",
    "word_conjugate_sign",
    "conjugate_sign_table",
    "CharacterTable",
    "kubota_index",
    "multiquadratic_h2",
]

DEFAULT_CF_STEPS = 10**6
# Quadratic characters that filter the unit-index saturation, one per prime.
# A basis has at most 7 units, so 127 products a round.  On the 151 fields of
# bench/data/row_fields.json, with each field's quartic subfields reading the
# octic field's characters, 8, 10, 12, 16 and 24 characters leave 94, 20, 2,
# 0 and 0 exact root tries failing (201 tries at 12), and verify the rows in
# 0.96, 0.99, 1, 1.08 and 1.23 times the time at 12 (median ratio of 10
# alternating passes).  The 235 radical tries that fail at every count are
# quartic products that become squares in the octic field, where its
# characters cannot tell them from squares.
CHARACTERS = 12


class NormMinusOneError(ValueError):
    """Operation defined only for units of norm +1."""


class DecompositionError(ValueError):
    """delta fails to split the discriminant the way a square root needs."""


@dataclass(frozen=True)
class QuadUnit:
    """Fundamental unit (x + y*sqrt(d))/2 > 1 of discriminant d."""

    d: int
    x: int
    y: int
    norm: int

    def __post_init__(self):
        if not (self.x > 0 and self.y > 0 and self.norm in (1, -1)
                and self.x * self.x - self.d * self.y * self.y == 4 * self.norm):
            raise ValueError(f"{self!r} is not a unit > 1 of norm +-1")

    @property
    def m(self) -> int:
        """Squarefree radicand of the field."""
        return radicand(self.d)

    def coords_over_radicand(self) -> tuple[int, int]:
        """(x, y') with unit = (x + y'*sqrt(m))/2 over the radicand m."""
        w = 1 if self.d % 4 == 1 else 2
        return self.x, self.y * w

    def trace(self) -> int:
        return self.x

    @functools.cached_property
    def _sqrt(self) -> SqrtUnitDecomposition:
        # built by the first sqrt_unit_decomposition(self) and kept in the
        # instance __dict__, which lies outside __eq__, __hash__ and __repr__
        if self.norm != 1:
            raise NormMinusOneError(
                f"square-root decomposition needs norm +1 (discriminant {self.d})"
            )
        m = self.m
        x, ym = self.coords_over_radicand()
        # n = N(1 + eps) = 1 + Tr(eps) + N(eps) = x + 2 = delta * s^2.
        # (x+2)(x-2) = d y^2 and gcd(x+2, x-2) | 4 force every odd prime that
        # appears in x+2 to odd multiplicity to divide the field radicand, so
        # delta is found on the primes of 2m, without factoring the
        # (potentially huge) n itself
        n, delta, s = x + 2, 1, 1
        for p in factorize(2 * m):
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            if v % 2:
                delta *= p
            s *= p ** (v // 2)
        root = math.isqrt(n)
        if root * root != n:
            raise DecompositionError(
                f"norm of 1+eps is not delta times a square (stray factor {n})"
            )
        s *= root
        g = math.gcd(m, delta)
        if (delta // g) not in (1, 2):
            # every odd prime of delta must divide the field radicand
            raise DecompositionError(
                f"delta {delta} does not split the discriminant {self.d}"
            )
        m2 = (m // g) * (delta // g)
        num = ym * g
        den = s * delta
        if num % den:
            raise DecompositionError(
                f"no half-integral square root over ({delta}, {m2}) for {self}"
            )
        a, b = s, num // den
        # exact checks: squaring (a sqrt(m1) + b sqrt(m2))/2 must return eps
        if (a * a * delta + b * b * m2 != 2 * x or a * b * (delta // g) != ym
                or a * a * delta - b * b * m2 not in (4, -4)):
            raise DecompositionError(
                f"square root of {self} over ({delta}, {m2}) fails the exact check"
            )
        return SqrtUnitDecomposition(a, b, (delta, m2))

    def __str__(self) -> str:
        return f"({self.x} + {self.y}*sqrt({self.d}))/2"


def fundamental_unit(d: int, max_steps: int = DEFAULT_CF_STEPS) -> QuadUnit:
    """Fundamental unit > 1 of the real quadratic field of discriminant d.

    The continued fraction of omega = (p0 + sqrt(m))/q0, (1 + sqrt(m))/2
    resp. sqrt(m), is purely periodic from its first complete quotient
    (p + sqrt(m))/q, and its period k ends at the first step k >= 1 with
    q = q0.  The last convergent r/s gives eps = r - s*conj(omega) and
    N(eps) = (-1)^k; the loop keeps O(1) integers.  It needs
    max_steps >= k + 1, or k when omega lies on the cycle (d = 5).
    """
    if d <= 0 or not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a positive fundamental discriminant")
    m = radicand(d)
    p0, q0 = (1, 2) if m % 4 == 1 else (0, 1)
    p, q = p0, q0
    sq = math.isqrt(m)
    r, r1, s, s1 = 1, 0, 0, 1  # convergents r/s and the one before
    step = 0
    while step <= max_steps:
        step += 1
        a = (p + sq) // q
        r, r1 = a * r + r1, r
        s, s1 = a * s + s1, s
        p = a * q - p
        q = (m - p * p) // q
        if q == q0:
            break
    if step + (p != p0) > max_steps:
        raise BoundExceededError(
            f"continued fraction of discriminant {d} exceeded {max_steps} steps"
        )
    # eps = r - s (p0 - sqrt(m))/q0, written as (x + y sqrt(d))/2
    x = 2 * r - s if q0 == 2 else 2 * r
    return QuadUnit(d, x, s, -1 if step % 2 else 1)


def delta_invariant(u: QuadUnit) -> int:
    """delta(eps) = squarefree kernel of N(1 + eps); needs norm +1.

    It is the m1 of sqrt_unit_decomposition(u).
    """
    if u.norm != 1:
        raise NormMinusOneError(
            f"delta is undefined for the norm -1 unit of {u.d}"
        )
    return sqrt_unit_decomposition(u).m1


@dataclass(frozen=True)
class SqrtUnitDecomposition:
    """sqrt(eps) = (a*sqrt(m1) + b*sqrt(m2))/2 with m1 = delta(eps)."""

    a: int
    b: int
    basis: tuple[int, int]

    @property
    def m1(self) -> int:
        return self.basis[0]

    @property
    def m2(self) -> int:
        return self.basis[1]

    def sign_identity(self, leading: int | None = None) -> int:
        """(a^2 u - b^2 v)/4 = +-1 for the basis ordered with `leading` first."""
        value = (self.a**2 * self.m1 - self.b**2 * self.m2) // 4
        if leading is None or leading == self.m1:
            return value
        if leading == self.m2:
            return -value
        raise ValueError(f"{leading} is not part of the basis {self.basis}")


def sqrt_unit_decomposition(u: QuadUnit) -> SqrtUnitDecomposition:
    """Exact decomposition sqrt(eps) = (a*sqrt(delta) + b*sqrt(m2))/2.

    Follows sqrt(eps) = (1+eps)/sqrt(N(1+eps)): with n = x+2 = delta*s^2 the
    radical splits over delta and the complementary kernel of the field
    radicand.  All identities are verified exactly before returning.  The
    decomposition is built once per QuadUnit object and kept on it, so
    every later call on the same unit returns it without factoring again.
    """
    return u._sqrt


def _radical_sign(m: int, signs: Mapping[int, int]) -> int:
    """Sign assigned to sqrt(m) by an embedding given on prime radicals."""
    out = 1
    rest = m
    for p, s in signs.items():
        if rest % p == 0:
            out *= s
            rest //= p
    if rest != 1:
        raise ValueError(f"embedding does not cover all primes of {m}")
    return out


def sqrt_conjugate_sign(dec: SqrtUnitDecomposition,
                        signs: Mapping[int, int]) -> int:
    """Sign of the conjugate of sqrt(eps) under the given radical signs."""
    s1 = _radical_sign(dec.m1, signs)
    s2 = _radical_sign(dec.m2, signs)
    if s1 == s2:
        return s1
    dominant = 1 if dec.a**2 * dec.m1 > dec.b**2 * dec.m2 else -1
    return s1 * dominant


def unit_conjugate_sign(u: QuadUnit, signs: Mapping[int, int]) -> int:
    """Sign of the conjugate of a (positive) fundamental unit itself."""
    if _radical_sign(u.m, signs) == 1:
        return 1
    return u.norm


# A unit word is a product of square roots of units and plain units:
# word = prod sqrt(eps_i) * prod eps_j, encoded ("sqrt"|"plain", QuadUnit).
Word = Sequence[tuple[str, QuadUnit]]


def word_conjugate_sign(word: Word, signs: Mapping[int, int]) -> int:
    out = 1
    for kind, u in word:
        if kind == "sqrt":
            out *= sqrt_conjugate_sign(sqrt_unit_decomposition(u), signs)
        elif kind == "plain":
            out *= unit_conjugate_sign(u, signs)
        else:
            raise ValueError(f"unknown word factor kind {kind!r}")
    return out


def conjugate_sign_table(words: Iterable[Word],
                         embeddings: Sequence[Mapping[int, int]]
                         ) -> list[list[int]]:
    """Matrix of conjugate signs, one row per word, one column per embedding."""
    if not embeddings:
        raise ValueError("need at least one embedding")
    return [[word_conjugate_sign(w, e) for e in embeddings] for w in words]


# ---------------------------------------------------------------------------
# multiquadratic fields: exact arithmetic on Q(sqrt(m1), ..., sqrt(mr))

def _lowest_terms(coeffs: list[int], den: int) -> tuple[list[int], int]:
    """The element coeffs/den, for den > 0, with gcd(den, *coeffs) = 1."""
    g = math.gcd(den, *coeffs)
    if g == 1:
        return coeffs, den
    return [c // g for c in coeffs], den // g


class _MultiQuadField:
    """Q(sqrt(m_1), ..., sqrt(m_r)) for squarefree, multiplicatively
    independent m_i > 1.

    An element is a pair (coeffs, den): 2^r integer coefficients over the
    product basis sqrt(m_S) = prod(sqrt(m_i) : i in S), indexed by the bit
    mask S, and one denominator den > 0.  Elements are kept in lowest terms,
    gcd(den, *coeffs) = 1, so zero is ([0, ..., 0], 1) and equal elements
    are equal pairs.  The first half of coeffs lies in the subfield F on the
    first r - 1 generators and the second half is the coefficient of
    sqrt(m_r), so u = (a + b*sqrt(m_r))/den with a, b integer vectors of F;
    the same methods serve every subfield.
    """

    def __init__(self, gens: Sequence[int]):
        self.gens = tuple(gens)
        # w[S] = prod(m_i : i in S): sqrt(m_S) sqrt(m_T) = w[S & T] sqrt(m_{S ^ T});
        # kernel[S]: the squarefree m with Q(sqrt(m)) = Q(sqrt(w[S])), and
        # for squarefree k and m the kernel of k m is k m / gcd(k, m)^2
        self.w, self.kernel = [1], [1]
        for m in gens:
            self.w += [x * m for x in self.w]
            self.kernel += [k * m // math.gcd(k, m) ** 2 for k in self.kernel]
        if len(set(self.kernel)) != len(self.w):
            raise ValueError(f"radicands {gens} are not independent")

    def _mul(self, u: list[int], v: list[int]) -> list[int]:
        """Product of two integer coefficient vectors, not reduced."""
        w = self.w
        out = [0] * len(u)
        for s, cu in enumerate(u):
            if cu:
                for t, cv in enumerate(v):
                    if cv:
                        out[s ^ t] += cu * cv * w[s & t]
        return out

    def mul(self, u, v):
        """u * v in lowest terms."""
        return _lowest_terms(self._mul(u[0], v[0]), u[1] * v[1])

    def _split(self, coeffs: list[int]) -> tuple[list[int], list[int], int]:
        """(a, b, m) with coeffs = a + b*sqrt(m), a and b over the subfield."""
        half = len(coeffs) // 2
        return coeffs[:half], coeffs[half:], self.w[half]

    def _relative_norm(self, a: list[int], b: list[int], m: int) -> list[int]:
        """a^2 - m b^2, the norm of a + b*sqrt(m) to the subfield."""
        return [x - m * y for x, y in zip(self._mul(a, a), self._mul(b, b))]

    def sqrt(self, eta):
        """A square root of eta in the field, or None if eta is no square.

        If eta = (x + y sqrt(m))^2 with x, y in F, then n = x^2 - m y^2 is a
        square root of the relative norm a^2 - m b^2, x^2 = (a + n)/2 and
        m y^2 = (a - n)/2.  Recursing on the norm and on both signs of n
        reaches every root; b = 2xy, compared exactly and cross-multiplied
        by the denominators, picks the sign of y.  At Q a fraction in lowest
        terms is a square when its numerator and denominator are.
        """
        coeffs, den = eta
        if len(coeffs) == 1:
            c = coeffs[0]
            if c < 0:
                return None
            num, root = math.isqrt(c), math.isqrt(den)
            if num * num != c or root * root != den:
                return None
            return [num], root
        a, b, m = self._split(coeffs)
        n = self.sqrt(_lowest_terms(self._relative_norm(a, b, m), den * den))
        if n is None:
            return None
        nc, nd = n
        # a/den and nc/nd over the common denominator den * nd
        den_n = den * nd
        a = [c * nd for c in a]
        n = [c * den for c in nc]
        for n in (n, [-c for c in n]):
            x = self.sqrt(_lowest_terms([c + d for c, d in zip(a, n)], 2 * den_n))
            if x is None:
                continue
            y = self.sqrt(_lowest_terms([c - d for c, d in zip(a, n)], 2 * m * den_n))
            if y is None:
                continue
            # (2xy)^2 = b^2 holds once x and y exist, so this comparison of
            # 2xy with +-b/den (both sides times den and the denominators of
            # x, y) chooses the sign of y; it does not test for a root
            xy2 = [2 * den * c for c in self._mul(x[0], y[0])]
            bxy = [c * x[1] * y[1] for c in b]
            if xy2 == bxy or xy2 == [-c for c in bxy]:
                # x +- y sqrt(m) over the lcm is in lowest terms: a prime of
                # the lcm divides the denominator of x or of y as often, and
                # not every coefficient of that element
                lcm = math.lcm(x[1], y[1])
                sy = lcm // y[1] if xy2 == bxy else -lcm // y[1]
                return [c * (lcm // x[1]) for c in x[0]] + [c * sy for c in y[0]], lcm
        return None

    def sign(self, u) -> int:
        """Sign of u in the real embedding where every sqrt(m_i) is positive."""
        return self._sign(u[0])  # the denominator is positive

    def _sign(self, coeffs: list[int]) -> int:
        if len(coeffs) == 1:
            return (coeffs[0] > 0) - (coeffs[0] < 0)
        a, b, m = self._split(coeffs)
        sa, sb = self._sign(a), self._sign(b)
        if sa * sb >= 0:
            return sa or sb
        # a and b sqrt(m) differ in sign: the larger in absolute value wins
        return sa if self._sign(self._relative_norm(a, b, m)) > 0 else sb


def _unit_basis(field: _MultiQuadField, unit: Callable[[int], QuadUnit]) -> list:
    """Fundamental units of the quadratic subfields, one per nonzero mask;
    unit(D) is the fundamental unit of discriminant D.

    Each entry is (element, radical): radical is the decomposition
    sqrt(eps) = (a sqrt(m1) + b sqrt(m2))/2 of a norm +1 unit, which
    _radical_root reads, and None for a norm -1 unit.
    """
    basis = []
    for mask, w in enumerate(field.w[1:], start=1):
        # (x + y' sqrt(m))/2 = (x g + y' sqrt(m_mask))/2g, g^2 = w/m
        u = unit(discriminant_of(field.kernel[mask]))
        x, ym = u.coords_over_radicand()
        g = math.isqrt(w // u.m)
        coeffs = [0] * len(field.w)
        coeffs[0], coeffs[mask] = x * g, ym
        radical = sqrt_unit_decomposition(u) if u.norm == 1 else None
        basis.append((_lowest_terms(coeffs, 2 * g), radical))
    return basis


def _radical_root(field: _MultiQuadField,
                  radicals: Sequence[SqrtUnitDecomposition]):
    """A square root in K of the product eta of the norm +1 units whose
    roots are (a sqrt(m1) + b sqrt(m2))/2, or None when eta is no square.

    With m the radicand of a unit, m1 m2 = m e^2 for an integer e.  An
    automorphism of K(sqrt(m1) : all radicals) over K fixes sqrt(m), so it
    negates the unit's root exactly when it negates sqrt(m1).  The root of
    eta, the product of the units' roots, is fixed by all of them, and so
    lies in K, exactly when sqrt(prod m1) does: when the squarefree kernel
    of prod m1 is one of K's kernels, 1 among them (Kubota 1956, Wada
    1966).  The product
    then expands into terms c sqrt(r) with r squarefree; every r is one of
    K's kernels, and sqrt(kernel[S]) = sqrt(w[S])/g with g^2 = w[S]/kernel[S]
    places the term on the product basis.  The large a and b are only
    multiplied, never put under a square root.  The root is in lowest
    terms, of either sign.
    """
    k = 1
    for radical in radicals:
        k = k * radical.m1 // math.gcd(k, radical.m1) ** 2
    if k not in field.kernel:
        return None
    # terms[r] = c: the partial product is the sum of c sqrt(r)
    terms = {1: 1}
    for radical in radicals:
        product: dict[int, int] = {}
        for r, c in terms.items():
            for coeff, m in ((radical.a, radical.m1), (radical.b, radical.m2)):
                g = math.gcd(r, m)
                key = (r // g) * (m // g)
                product[key] = product.get(key, 0) + c * coeff * g
        terms = product
    roots = {r: math.isqrt(field.w[field.kernel.index(r)] // r) for r in terms}
    lcm = math.lcm(*roots.values())
    coeffs = [0] * len(field.w)
    for r, c in terms.items():
        coeffs[field.kernel.index(r)] = c * (lcm // roots[r])
    return _lowest_terms(coeffs, 2 ** len(radicals) * lcm)


@functools.cache
def _roots(p: int) -> tuple[int, ...]:
    """Entry a is the square root r of a mod the odd prime p with
    0 < r < p/2, or 0 when a is zero or no square mod p.

    One table of p entries for each prime any field's characters have
    looked at, giving both the roots and the Legendre symbols mod p; the
    characters of the row fields stop at p = 1019.
    """
    table = [0] * p
    for r in range(1, (p + 1) // 2):
        table[r * r % p] = r
    return tuple(table)


def _characters(gens: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """CHARACTERS quadratic characters of Q(sqrt(m_1), ..., sqrt(m_r)).

    Each is (p, rho) with rho[S] the image of sqrt(m_S) in F_p under the
    least roots of the m_i mod p, for the first CHARACTERS odd primes p
    that divide no m_i and modulo which every m_i is a square.  The roots
    fix one degree-one prime of K above p, and the character is the
    Legendre symbol of an element's image there.
    """
    chars = []
    lo = 2
    while len(chars) < CHARACTERS:
        # the primes in (lo, 2 lo], from the shared table
        for p in _primes_upto(2 * lo):
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


def _character_vector(chars: Sequence[tuple[int, tuple[int, ...]]], u) -> int:
    """Bit k is set when the Legendre symbol of u's image at the prime of
    chars[k] is -1.

    The image of u = (coeffs, den) is den^-1 sum(coeffs[S] rho[S]) mod p,
    and its symbol is the product of the symbols of the sum and of den; the
    sum runs over the nonzero coefficients only, two for an original unit.
    A denominator divisible by p or a zero image raises: neither occurs for
    a unit, since p is prime to 2 m_1 ... m_r and so the unit and its
    inverse both have p-integral coefficients.
    """
    vector = 0
    coeffs, den = u
    terms = [(s, c) for s, c in enumerate(coeffs) if c]
    for k, (p, rho) in enumerate(chars):
        roots = _roots(p)
        den_p = den % p
        if den_p == 0:
            raise ArithmeticError(f"the denominator of {u} has no inverse mod {p}")
        image = sum(c * rho[s] for s, c in terms) % p
        if image == 0:
            raise ArithmeticError(f"{u} vanishes at a prime above {p}")
        if (roots[image] == 0) != (roots[den_p] == 0):
            vector |= 1 << k
    return vector


class CharacterTable:
    """The CHARACTERS quadratic characters of a totally real multiquadratic
    field K = Q(sqrt(m_1), ..., sqrt(m_r)), shared by the unit indices of K
    and of its subfields.

    A subfield L = Q(sqrt(n_1), ..., sqrt(n_s)) has each n_j among K's
    kernels, n_j = kernel[S_j], and reads its characters at K's primes: the
    root of n_j mod p is rho[S_j] / g_j with g_j^2 = w[S_j] / n_j, not a
    fresh least root.  So every element of L has the image it has as an
    element of K, at the same degree-one prime, and a unit's character
    vector is the same in every field that contains it.  vectors[S] keeps
    the vector of the fundamental unit of Q(sqrt(kernel[S])), computed by
    the first unit index that reads it; the characters are walked on first
    use.  One table serves one K, and its unit indices must take their
    units from one unit function.  K's characters are +1 on every element
    of L that is a square in K, so a subfield's filter lets through the
    products that become squares only in K; the radicals or the exact root
    search reject them.
    """

    def __init__(self, gens: Sequence[int]):
        if any(m <= 1 for m in gens):
            raise ValueError(f"radicands {list(gens)} do not span a totally real field")
        self.field = _MultiQuadField(gens)
        self.vectors: dict[int, int] = {}

    @functools.cached_property
    def chars(self) -> list[tuple[int, tuple[int, ...]]]:
        return _characters(self.field.gens)

    def subfield(self, gens: Sequence[int], unit: Callable[[int], QuadUnit]):
        """(L, basis, chars, vectors), _saturate's arguments, for the
        subfield L of K on the radicands gens; unit(D) is the fundamental
        unit of discriminant D.  A radicand that is none of K's kernels
        raises ValueError."""
        k = self.field
        if not all(m in k.kernel[1:] for m in gens):
            raise ValueError(f"radicands {list(gens)} do not all lie in the field "
                             f"on the radicands {list(k.gens)}")
        masks = [k.kernel.index(m) for m in gens]
        field = _MultiQuadField(gens)
        scales = [math.isqrt(k.w[s] // m) for s, m in zip(masks, gens)]
        chars = []
        for p, rho in self.chars:
            sub = [1]
            for s, g in zip(masks, scales):
                r = rho[s] * pow(g, -1, p) % p
                sub += [x * r % p for x in sub]
            chars.append((p, tuple(sub)))
        basis = _unit_basis(field, unit)
        # K's mask of each subfield mask, in the order of field.w
        at = [0]
        for s in masks:
            at += [x ^ s for x in at]
        for s, (u, _) in zip(at[1:], basis):
            if s not in self.vectors:
                self.vectors[s] = _character_vector(chars, u)
        return field, basis, chars, [self.vectors[s] for s in at[1:]]


def _saturate(field: _MultiQuadField, basis: Sequence,
              chars: Sequence[tuple[int, tuple[int, ...]]],
              vectors: Sequence[int]) -> tuple[int, list]:
    """(q, saturated basis): the 2-saturation of the lattice spanned by basis.

    basis holds (element, radical) pairs as _unit_basis builds them, and
    vectors their character vectors under chars.  Masks are visited in
    increasing order.  A mask whose characters do not all cancel names a
    product with a character -1, which is no square, so only the other
    masks are decided.  A mask whose units all carry a radical (original
    norm +1 units) is decided, and its root built, from the radicals by
    _radical_root; any other mask, one with a norm -1 unit or a swapped-in
    root, gets its product built and an exact sqrt tried.  The first square
    found replaces its highest basis element, basis[top], by the positive
    root, which carries no radical, and the root's character vector is
    computed afresh.  The next round starts at mask 1 << top: the masks
    below it multiply elements that did not change, and this round found
    none of them a square.
    """
    basis, vectors = list(basis), list(vectors)
    xors = [0]  # xors[mask] = XOR of vectors[i] for the bits i of mask
    q = 1
    while True:
        for mask in range(len(xors), 2 ** len(basis)):
            top = mask.bit_length() - 1
            xors.append(xors[mask ^ (1 << top)] ^ vectors[top])
            if xors[mask]:
                continue
            factors = [basis[i] for i in range(top + 1) if mask >> i & 1]
            radicals = [radical for _, radical in factors]
            if all(radical is not None for radical in radicals):
                xi = _radical_root(field, radicals)
            else:
                xi = field.sqrt(functools.reduce(field.mul, (u for u, _ in factors)))
            if xi is not None:
                break
        else:
            return q, basis
        # eta is no square of a lattice element (exponents are 0/1), so
        # swapping the root in genuinely doubles the lattice
        if field.sign(xi) < 0:
            xi = [-c for c in xi[0]], xi[1]
        basis[top] = (xi, None)
        vectors[top] = _character_vector(chars, xi)
        del xors[1 << top:]
        q *= 2


def kubota_index(m1: int, m2: int, m3: int | None = None,
                 unit: Callable[[int], QuadUnit] = fundamental_unit,
                 table: CharacterTable | None = None) -> int:
    """Unit index q(K/Q) = (E_K : <subfield fundamental units, -1>).

    K = Q(sqrt(m1), sqrt(m2)[, sqrt(m3)]) must be totally real.  Saturates
    the lattice spanned by the subfield fundamental units at 2: whenever a
    product eta of basis elements has a square root in K, the root replaces
    a basis element and doubles the index.  When every factor of eta is an
    original unit of norm +1, the radical forms sqrt(eps) = (a sqrt(delta)
    + b sqrt(m2))/2 of sqrt_unit_decomposition decide the root and build it
    (_radical_root); otherwise _MultiQuadField.sqrt finds it exactly.  A
    DecompositionError from a norm +1 unit propagates.  Every basis element
    is kept positive in one embedding, so -eta, negative there, never needs
    testing.  Iterating until no product is a square catches units that are
    fourth roots of unit products, which occur from degree 8 on.  E_K
    modulo the lattice is a 2-group, so the lattice that no square root
    extends is E_K itself and q is exact.

    A product is decided only when the XOR of its factors' character
    vectors is 0: a square has every quadratic character +1, so a skipped
    product is certainly no square.  Masks keep the unfiltered search's
    order, and both ways of deciding a product are exact, so the same first
    square is found, the same roots are swapped in and q is the same.  Once
    the basis vectors are independent over F_2 no product passes, which
    certifies q without another root search.

    unit(D) gives the fundamental unit of the subfield of discriminant D;
    it defaults to fundamental_unit.  table, a CharacterTable of a field K
    that contains this one, gives the characters: a caller that indexes K
    and its subfields passes one table and one unit memo to all of them,
    so K's characters are walked once and each subfield unit's character
    vector is computed once.  The radicands must then be among K's
    kernels, which makes them squarefree.  Without a table the radicands
    are reduced to their squarefree kernels and the call builds the table
    of its own field.
    """
    gens = [m for m in (m1, m2, m3) if m is not None]
    if table is None:
        gens = [squarefree_kernel(m) for m in gens]
        table = CharacterTable(gens)
    return _saturate(*table.subfield(gens, unit))[0]


def multiquadratic_h2(subfield_h2: Sequence[int], q: int, degree: int) -> int:
    """2-class number of a real multiquadratic field of degree 4 or 8.

    This is Kuroda's class number formula over Q, with q the unit index
    and the h2 of the quadratic subfields:
    Degree 4: h2 = q * prod(three subfield h2) / 4.
    Degree 8: h2 = q * prod(seven subfield h2) / 2^9.
    """
    if degree == 4:
        expected, shift = 3, 2
    elif degree == 8:
        expected, shift = 7, 9
    else:
        raise ValueError(f"degree must be 4 or 8, got {degree}")
    if len(subfield_h2) != expected:
        raise ValueError(
            f"degree {degree} needs {expected} subfield class numbers"
        )
    num = q * math.prod(subfield_h2)
    if num % 2**shift:
        raise ValueError(
            f"inconsistent inputs: {q} * {tuple(subfield_h2)} not divisible "
            f"by 2^{shift}"
        )
    return num >> shift
