"""Fundamental units, the delta invariant, square-root decompositions and
the unit indices of real multiquadratic fields.

fundamental_unit reads the fundamental unit eps of a real quadratic field
off the package's only continued fraction.  When N(eps) = +1, Hilbert 90
gives sqrt(eps) = (1 + eps)/sqrt(N(1 + eps)) = (a sqrt(m1) + b sqrt(m2))/2
with m1 = delta, the squarefree kernel of N(1 + eps); the associated sign
(a^2 m1 - b^2 m2)/4 = +-1 reproduces the classical Legendre-symbol
identities.  sqrt_unit_decomposition builds this radical form once per unit
object, delta_invariant reads delta off it, and the unit indices read the
same radicals.

kubota_index gives the exact unit index q(K/Q) of a real multiquadratic
field K by 2-saturating the lattice of its subfield units (Kubota 1956,
Wada 1966) in _saturate.  Each mechanism is explained where it lives:
- _characters and _character_vector: quadratic characters at degree-one
  primes, found in one pass over the prime table, decide that most unit
  products are no squares, as in the number field sieve (Adleman 1991;
  Buhler-Lenstra-Pomerance 1993);
- _radical_root: a product of original norm +1 units gets its root from
  their radical forms, with multiplications only;
- _MultiQuadField.sqrt: every other product gets its root exactly, by
  descent through relative norms down to a closed form on quadratic
  fields, with a shortcut for elements of the subfield one level down;
- CharacterTable: one field's unit basis and characters, which the unit
  indices of the field and of all its subfields share.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

from .arith import (
    BoundExceededError,
    _primes_upto,
    discriminant_of,
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
# 0.99, 0.99, 1, 1.07 and 1.15 times the time at 12 (median ratio of 20
# alternating passes, with one CRT image per character vector).  At every
# count, 235 quartic products of norm +1 units pass that become squares only
# in the octic field, where its characters cannot tell them from squares:
# each gets a radical root, which lies off the quartic field's masks and so
# is rejected.  The count stays 12: the tests pin the tries and the
# certified bases at 12.
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
        # (x+2)(x-2) = d y^2 and gcd(x+2, x-2) | 4: an odd prime divides n to
        # odd multiplicity exactly when it divides both n and m, so the odd
        # part of delta is gcd(n, odd part of m), and 2 divides delta exactly
        # when v2(n) is odd.  Nothing is factored.
        n = x + 2
        delta = math.gcd(n, m if m % 2 else m // 2)
        if (n & -n).bit_length() % 2 == 0:  # v2(n) is odd
            delta *= 2
        s = math.isqrt(n // delta)
        if s * s * delta != n:
            raise DecompositionError(
                f"norm of 1+eps is not {delta} times a square (discriminant {self.d})"
            )
        g = math.gcd(m, delta)
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
    """delta(eps) = squarefree kernel of N(1 + eps), the m1 of
    sqrt_unit_decomposition(u), which raises NormMinusOneError for a unit
    of norm -1."""
    return sqrt_unit_decomposition(u).m1


@dataclass(frozen=True)
class SqrtUnitDecomposition:
    """sqrt(eps) = (a*sqrt(m1) + b*sqrt(m2))/2 with m1 = delta(eps) and
    a, b > 0."""

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
    every later call on the same unit returns it without rebuilding it.
    """
    return u._sqrt


# ---------------------------------------------------------------------------
# multiquadratic fields: exact arithmetic on Q(sqrt(m1), ..., sqrt(mr))

def _rational_sqrt(num: int, den: int) -> tuple[int, int] | None:
    """(r, s) with (r/s)^2 = num/den, for num/den in lowest terms and
    den > 0, or None when num/den is no rational square."""
    if num < 0:
        return None
    r, s = math.isqrt(num), math.isqrt(den)
    if r * r != num or s * s != den:
        return None
    return r, s


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

    def _inverse(self, coeffs: list[int]) -> tuple[list[int], int]:
        """(c, e) with coeffs * c = e for a nonzero integer e, so that the
        inverse of the nonzero element coeffs is c/e: u (a - b sqrt(m)) is
        the relative norm a^2 - m b^2, which is inverted in the subfield."""
        if len(coeffs) == 1:
            return [1], coeffs[0]
        a, b, m = self._split(coeffs)
        c, e = self._inverse(self._relative_norm(a, b, m))
        return self._mul(a, c) + [-x for x in self._mul(b, c)], e

    def sqrt(self, eta):
        """A square root of eta in the field, or None if eta is no square.

        Write eta = a + b sqrt(m) with a, b in F.  A root x + y sqrt(m) has
        2xy = b, so when b is 0 the root is x in F or y sqrt(m) with
        y^2 = a/m in F.  Otherwise x and y are both nonzero, and
        n = x^2 - m y^2 has n^2 = a^2 - m b^2, the relative norm, and
        a + n = 2 x^2.  On a quadratic field, F = Q, so n is the integer
        root of the norm, x the rational root of (a + n)/2 for one sign of
        n, and y = b/(2x).  Above it the descent takes one root n of the
        norm in F and, for each sign of n, one root s of 2(a + n) in F;
        then (eta + n)^2 = eta (2a + 2n) = eta s^2, and the root is
        (eta + n)/s, with 1/s from the recursive inverse.  At Q a fraction
        in lowest terms is a square when its numerator and denominator are.
        """
        coeffs, den = eta
        if len(coeffs) == 1:
            root = _rational_sqrt(coeffs[0], den)
            return None if root is None else ([root[0]], root[1])
        a, b, m = self._split(coeffs)
        if not any(b):
            x = self.sqrt((a, den))
            if x is not None:
                return x[0] + [0] * len(a), x[1]
            y = self.sqrt(_lowest_terms(a, den * m))
            return None if y is None else ([0] * len(a) + y[0], y[1])
        if len(coeffs) == 2:
            (c0,), (c1,) = a, b
            norm = c0 * c0 - m * c1 * c1
            n = math.isqrt(max(norm, 0))
            if n * n != norm:
                return None
            for t in (c0 + n, c0 - n):
                # x = p/q with x^2 = t/(2 den), and y = c1 q/(2 den p)
                g = math.gcd(t, 2 * den)
                x = _rational_sqrt(t // g, 2 * den // g)
                if x is not None:
                    p, q = x
                    return _lowest_terms([2 * den * p * p, c1 * q * q], 2 * den * p * q)
            return None
        n = self.sqrt(_lowest_terms(self._relative_norm(a, b, m), den * den))
        if n is None:
            return None
        nc, nd = n
        # eta + n = (t + b nd sqrt(m)) / (den nd) with t = a nd + nc den
        a_nd = [c * nd for c in a]
        n_den = [c * den for c in nc]
        for t in ([x + y for x, y in zip(a_nd, n_den)],
                  [x - y for x, y in zip(a_nd, n_den)]):
            s = self.sqrt(_lowest_terms([2 * c for c in t], den * nd))
            if s is None:
                continue
            # 1/s = sd c / e for s = sc/sd and sc c = e
            c, e = self._inverse(s[0])
            scale = s[1] if e > 0 else -s[1]
            xi = self._mul(t, c) + self._mul([x * nd for x in b], c)
            return _lowest_terms([x * scale for x in xi], den * nd * abs(e))
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
    """The positive square root of the product eta of the norm +1 units
    whose roots are (a sqrt(m1) + b sqrt(m2))/2, in the field K, or None
    when eta is no square in K.

    With m the radicand of a unit, m1 m2 = m e^2 for an integer e.  An
    automorphism of K(sqrt(m1) : all radicals) over K fixes sqrt(m), so it
    negates the unit's root exactly when it negates sqrt(m1).  The root of
    eta, the product of the units' roots, is fixed by all of them, and so
    lies in K, exactly when sqrt(prod m1) does: when the squarefree kernel
    of prod m1 is one of K's kernels, 1 among them (Kubota 1956, Wada
    1966).  The product then expands into terms c sqrt(r) with r
    squarefree and c > 0, as every a and b is positive, so the root is
    positive in the embedding where every sqrt(m_i) is.  The sqrt(r) are
    independent over Q, so every r is one of K's kernels, and
    sqrt(kernel[S]) = sqrt(w[S])/g with g^2 = w[S]/kernel[S] places the
    term on K's product basis.  The large a and b are only multiplied,
    never put under a square root.  The root is in lowest terms.
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


class _Characters(tuple):
    """A field's quadratic characters: the pairs (p, rho) of _characters,
    with the rho combined over all the primes by the Chinese remainder
    theorem.  lifts[S] is the integer modulo the product of the primes that
    is rho[S] mod each p, so one sum of the coefficients times the lifts
    gives an element's image at every prime at once.  roots[k] is the table
    of the k-th prime."""

    def __new__(cls, chars):
        self = super().__new__(cls, chars)
        self.modulus = math.prod(p for p, _ in self)
        # crt[k] is 1 mod the k-th prime and 0 mod the others
        crt = [self.modulus // p * pow(self.modulus // p, -1, p) for p, _ in self]
        self.lifts = [sum(e * r for e, r in zip(crt, column)) % self.modulus
                      for column in zip(*(rho for _, rho in self))]
        self.roots = [_roots(p) for p, _ in self]
        return self


def _characters(gens: Sequence[int]) -> _Characters:
    """CHARACTERS quadratic characters of Q(sqrt(m_1), ..., sqrt(m_r)).

    Each is (p, rho) with rho[S] the image of sqrt(m_S) in F_p under the
    least roots of the m_i mod p, for the first CHARACTERS odd primes p
    that divide no m_i and modulo which every m_i is a square.  The roots
    fix one degree-one prime of K above p, and the character is the
    Legendre symbol of an element's image there.  One pass walks the shared
    prime table in order and tests every m_i's symbol before building rho;
    a walk that reaches the limit doubles it and goes on after the last
    prime tested.  The row fields' characters stop at p = 1019, below the
    first limit.
    """
    chars = []
    walked, limit = 1, 1024  # primes walked, 2 among them: it is no character prime
    while True:
        for p in islice(_primes_upto(limit), walked, None):
            walked += 1
            roots = _roots(p)
            for m in gens:
                if not roots[m % p]:
                    break
            else:
                rho = [1]
                for m in gens:
                    r = roots[m % p]
                    rho += [x * r % p for x in rho]
                chars.append((p, tuple(rho)))
                if len(chars) == CHARACTERS:
                    return _Characters(chars)
        limit *= 2


def _character_vector(chars: _Characters, u) -> int:
    """Bit k is set when the Legendre symbol of u's image at the prime of
    chars[k] is -1.

    The image of u = (coeffs, den) is den^-1 sum(coeffs[S] rho[S]) mod p,
    and its symbol is that of den times the sum.  That product is formed
    once, modulo the product of the primes, from the lifts of the rho; the
    sum runs over the nonzero coefficients only, two for an original unit.
    A denominator divisible by p or a zero image raises: neither occurs for
    a unit, since p is prime to 2 m_1 ... m_r and so the unit and its
    inverse both have p-integral coefficients.
    """
    coeffs, den = u
    image = den * sum(c * r for c, r in zip(coeffs, chars.lifts) if c) % chars.modulus
    vector = 0
    for k, ((p, _), roots) in enumerate(zip(chars, chars.roots)):
        x = image % p
        if x == 0:
            if den % p == 0:
                raise ArithmeticError(f"the denominator of {u} has no inverse mod {p}")
            raise ArithmeticError(f"{u} vanishes at a prime above {p}")
        if roots[x] == 0:
            vector |= 1 << k
    return vector


class CharacterTable:
    """The unit basis and the CHARACTERS quadratic characters of a totally
    real multiquadratic field K = Q(sqrt(m_1), ..., sqrt(m_r)), shared by
    the unit indices of K and of its subfields, all built on construction.

    field is K; chars its characters; basis the fundamental units of K's
    quadratic subfields, one per nonzero mask of K, on K's product basis,
    with unit(D), the fundamental unit of discriminant D, called once per
    mask; and vectors their character vectors.  A subfield L =
    Q(sqrt(n_1), ..., sqrt(n_s)) has each n_j among K's kernels, n_j =
    kernel[S_j], and its quadratic subfields sit at the masks that the S_j
    span.  So L's units are read off K's basis as they are, and every
    element of L keeps its image at K's degree-one primes: a unit's
    character vector is the same in every field that contains it.
    """

    def __init__(self, gens: Sequence[int],
                 unit: Callable[[int], QuadUnit] = fundamental_unit):
        if any(m <= 1 for m in gens):
            raise ValueError(f"radicands {list(gens)} do not span a totally real field")
        self.field = _MultiQuadField(gens)
        self.basis = _unit_basis(self.field, unit)
        self.chars = _characters(self.field.gens)
        self.vectors = [_character_vector(self.chars, u) for u, _ in self.basis]

    def subfield(self, gens: Sequence[int]):
        """(K, at, basis, chars, vectors), _saturate's arguments, for the
        subfield L of K on the radicands gens: at[T] is K's mask of L's mask
        T, and basis and vectors hold K's entries at at[1:].  A radicand that
        is none of K's kernels, or radicands that are not independent, raise
        ValueError."""
        k = self.field
        if not all(m in k.kernel[1:] for m in gens):
            raise ValueError(f"radicands {list(gens)} do not all lie in the field "
                             f"on the radicands {list(k.gens)}")
        at = [0]
        for m in gens:
            s = k.kernel.index(m)
            at += [x ^ s for x in at]
        if len(set(at)) != len(at):
            raise ValueError(f"radicands {list(gens)} are not independent")
        return (k, at, [self.basis[s - 1] for s in at[1:]], self.chars,
                [self.vectors[s - 1] for s in at[1:]])


def _saturate(field: _MultiQuadField, at: Sequence[int], basis: Sequence,
              chars: _Characters, vectors: Sequence[int]) -> tuple[int, list]:
    """(q, saturated basis): the 2-saturation of the lattice spanned by basis
    in the subfield L of field whose product basis sits at the masks at.

    basis holds (element, radical) pairs as _unit_basis builds them, on
    field's product basis, and vectors their character vectors under
    chars.  Masks are visited in increasing order, each naming the product
    eta of its basis elements.  A square has every quadratic character +1,
    so a mask whose vectors do not XOR to 0 is no square and is skipped.
    Every other mask is decided exactly, so the unfiltered search's first
    square is found; once the vectors are independent over F_2 no mask
    passes, which certifies q without another root search.

    A mask whose elements all carry a radical (original norm +1 units) gets
    its positive root, or None, from _radical_root; any other mask, one
    with a norm -1 unit or a swapped-in root, gets its product built and an
    exact sqrt tried in field, and a root found there is taken positive.
    One rule then decides whether the root lies in L: a root with a nonzero
    coefficient off L's masks lies only in field, and is no root in L.
    chars, built for field, are +1 on every element of L that is a square
    in field, so such roots do occur.  The first root in L replaces
    basis[top], the highest element of its mask, carries no radical, and
    gets its character vector computed afresh.  Every basis element is
    positive in the embedding where every sqrt(m_i) is positive, so -eta,
    negative there, never needs testing.  The next round starts at mask
    1 << top: the masks below it multiply elements that did not change, and
    this round found none of them a square.
    """
    off = set(range(len(field.w))).difference(at)
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
                if xi is not None and field.sign(xi) < 0:
                    xi = [-c for c in xi[0]], xi[1]
            if xi is not None and not any(xi[0][s] for s in off):
                break
        else:
            return q, basis
        # eta is no square of a lattice element (exponents are 0/1), so
        # swapping the root in genuinely doubles the lattice
        basis[top] = (xi, None)
        vectors[top] = _character_vector(chars, xi)
        del xors[1 << top:]
        q *= 2


def kubota_index(m1: int, m2: int, m3: int | None = None,
                 table: CharacterTable | None = None) -> int:
    """Unit index q(K/Q) = (E_K : <subfield fundamental units, -1>).

    K = Q(sqrt(m1), sqrt(m2)[, sqrt(m3)]) must be totally real.  _saturate
    saturates the lattice spanned by the subfield fundamental units at 2:
    whenever a product of basis elements has a square root in K, the root
    replaces a basis element and doubles the index.  Iterating until no
    product is a square catches units that are fourth roots of unit
    products, which occur from degree 8 on.  E_K modulo the lattice is a
    2-group, so the lattice that no square root extends is E_K itself and
    q is exact.  A DecompositionError from a norm +1 unit propagates.

    table, a CharacterTable of a field that contains K, gives the unit
    basis and the characters: a caller that indexes a field and its
    subfields builds one table on the largest, so that field's units and
    characters are built once, and each saturation runs on its product
    basis.  The radicands must then be among the table field's kernels,
    which makes them squarefree.  Without a table the radicands are reduced
    to their squarefree kernels and the call builds the table of K itself.
    """
    gens = [m for m in (m1, m2, m3) if m is not None]
    if table is None:
        gens = [squarefree_kernel(m) for m in gens]
        table = CharacterTable(gens)
    return _saturate(*table.subfield(gens))[0]


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
