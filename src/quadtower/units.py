"""Fundamental units, the delta invariant, square-root decompositions.

The fundamental unit of a real quadratic order is read off the continued
fraction of the standard generator.  For norm +1 units, Hilbert 90 gives
sqrt(eps) = (1 + eps)/sqrt(N(1 + eps)), so eps has a square root of the shape
(a sqrt(m1) + b sqrt(m2))/2 with m1 the squarefree kernel delta of N(1+eps);
the associated sign (a^2 m1 - b^2 m2)/4 = +-1 reproduces the classical
Legendre-symbol identities.  Unit indices q(K/Q) of real multiquadratic
fields are exact: K is saturated at 2 by testing which products of subfield
fundamental units are squares in K, and each square root is found in rational
arithmetic by descending through relative norms to Q, as in Wada's unit-group
algorithm for multiquadratic fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .arith import (
    BoundExceededError,
    discriminant_of,
    factorize,
    is_fundamental_discriminant,
    radicand,
    squarefree_kernel,
)

__all__ = [
    "QuadUnit",
    "DeltaInvariant",
    "SqrtUnitDecomposition",
    "NormMinusOneError",
    "DecompositionError",
    "fundamental_unit",
    "unit_of_radicand",
    "delta_invariant",
    "sqrt_unit_decomposition",
    "sqrt_conjugate_sign",
    "unit_conjugate_sign",
    "word_conjugate_sign",
    "conjugate_sign_table",
    "kubota_index",
    "multiquadratic_h2",
]

DEFAULT_CF_STEPS = 10**6


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
        assert self.x > 0 and self.y > 0 and self.norm in (1, -1)
        assert self.x * self.x - self.d * self.y * self.y == 4 * self.norm

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

    def __str__(self) -> str:
        return f"({self.x} + {self.y}*sqrt({self.d}))/2"


def fundamental_unit(d: int, max_steps: int = DEFAULT_CF_STEPS) -> QuadUnit:
    """Fundamental unit > 1 of the real quadratic field of discriminant d.

    Runs the continued fraction of (1+sqrt(m))/2 resp. sqrt(m) until the
    first repeated complete quotient, then extracts the automorph matrix;
    its bottom row gives the unit, and its determinant the norm.
    """
    if d <= 0 or not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a positive fundamental discriminant")
    m = radicand(d)
    if m % 4 == 1:
        p_cur, q_cur = 1, 2
    else:
        p_cur, q_cur = 0, 1
    sq = math.isqrt(m)
    pm1, pm2, qm1, qm2 = 1, 0, 0, 1
    seen: dict[tuple[int, int], tuple[int, int, int, int, int]] = {}
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
            if m % 4 == 1:
                x, y = s21 + 2 * s22, s21
            else:
                x, y = 2 * s22, s21
            unit = QuadUnit(d, abs(x), abs(y), norm)
            return unit
        seen[key] = (step, pm1, pm2, qm1, qm2)
        a = (p_cur + sq) // q_cur
        pm1, pm2 = a * pm1 + pm2, pm1
        qm1, qm2 = a * qm1 + qm2, qm1
        p_cur = a * q_cur - p_cur
        q_cur = (m - p_cur * p_cur) // q_cur
        step += 1
    raise BoundExceededError(
        f"continued fraction of discriminant {d} exceeded {max_steps} steps"
    )


def unit_of_radicand(m: int, max_steps: int = DEFAULT_CF_STEPS) -> QuadUnit:
    """Fundamental unit of Q(sqrt(m)) for a squarefree m > 1."""
    return fundamental_unit(discriminant_of(m), max_steps)


@dataclass(frozen=True)
class DeltaInvariant:
    """Squarefree kernel of N(1 + eps) for a norm +1 unit eps."""

    delta: int
    d: int  # discriminant of the unit's field

    def __int__(self) -> int:
        return self.delta


def _delta_split(n: int, m: int) -> tuple[int, int]:
    """n = delta * s^2 with delta squarefree supported on the primes of 2m.

    (x+2)(x-2) = d y^2 and gcd(x+2, x-2) | 4 force every odd prime that
    appears in x+2 to odd multiplicity to divide the field radicand, so the
    kernel is found without factoring the (potentially huge) n itself.
    """
    delta, square = 1, 1
    for p in sorted(factorize(2 * m)):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        if v % 2:
            delta *= p
        square *= p ** (v // 2)
    s = math.isqrt(n)
    if s * s != n:
        raise DecompositionError(
            f"norm of 1+eps is not delta times a square (stray factor {n})"
        )
    return delta, square * s


def delta_invariant(u: QuadUnit) -> DeltaInvariant:
    """delta(eps) = squarefree kernel of N(1 + eps); needs norm +1."""
    if u.norm != 1:
        raise NormMinusOneError(
            f"delta is undefined for the norm -1 unit of {u.d}"
        )
    # N(1 + eps) = 1 + Tr(eps) + N(eps) = x + 2
    return DeltaInvariant(_delta_split(u.x + 2, u.m)[0], u.d)


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
    radicand.  All identities are verified exactly before returning.
    """
    if u.norm != 1:
        raise NormMinusOneError(
            f"square-root decomposition needs norm +1 (discriminant {u.d})"
        )
    m = u.m
    x, ym = u.coords_over_radicand()
    n = x + 2
    delta, s = _delta_split(n, m)
    assert delta * s * s == n
    g = math.gcd(m, delta)
    if (delta // g) not in (1, 2):
        # every odd prime of delta must divide the field radicand
        raise DecompositionError(
            f"delta {delta} does not split the discriminant {u.d}"
        )
    m2 = (m // g) * (delta // g)
    num = ym * g
    den = s * delta
    if num % den:
        raise DecompositionError(
            f"no half-integral square root over ({delta}, {m2}) for {u}"
        )
    a, b = s, num // den
    # exact checks: squaring (a sqrt(m1) + b sqrt(m2))/2 must return eps
    if (a * a * delta + b * b * m2 != 2 * x or a * b * (delta // g) != ym
            or a * a * delta - b * b * m2 not in (4, -4)):
        raise DecompositionError(
            f"square root of {u} over ({delta}, {m2}) fails the exact check"
        )
    return SqrtUnitDecomposition(a, b, (delta, m2))


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

class _MultiQuadField:
    """Q(sqrt(m_1), ..., sqrt(m_r)) for multiplicatively independent m_i > 1.

    An element is a list of 2^r rational coefficients over the product
    basis sqrt(m_S) = prod(sqrt(m_i) : i in S), indexed by the bit mask S.
    Its first half lies in the subfield F on the first r - 1 generators and
    its second half is the coefficient of sqrt(m_r), so u = a + b*sqrt(m_r)
    with a, b in F; the same methods serve every subfield.
    """

    def __init__(self, gens: Sequence[int]):
        # w[S] = prod(m_i : i in S): sqrt(m_S) sqrt(m_T) = w[S & T] sqrt(m_{S ^ T})
        self.w = [math.prod(m for i, m in enumerate(gens) if mask >> i & 1)
                  for mask in range(2 ** len(gens))]
        if len({squarefree_kernel(x) for x in self.w}) != len(self.w):
            raise ValueError(f"radicands {gens} are not independent")

    def mul(self, u, v):
        w = self.w
        out = [0] * len(u)
        for s, cu in enumerate(u):
            if cu:
                for t, cv in enumerate(v):
                    if cv:
                        out[s ^ t] += cu * cv * w[s & t]
        return out

    def _split(self, u):
        """(a, b, m, a^2 - m b^2) for u = a + b*sqrt(m) over the subfield."""
        half = len(u) // 2
        a, b, m = u[:half], u[half:], self.w[half]
        norm = [x - m * y for x, y in zip(self.mul(a, a), self.mul(b, b))]
        return a, b, m, norm

    def sqrt(self, eta):
        """A square root of eta in the field, or None if eta is no square.

        If eta = (x + y sqrt(m))^2 with x, y in F, then n = x^2 - m y^2 is a
        square root of the relative norm a^2 - m b^2, x^2 = (a + n)/2 and
        m y^2 = (a - n)/2.  Recursing on the norm and on both signs of n
        reaches every root; each is checked exactly against b = 2xy.
        """
        if len(eta) == 1:
            c = Fraction(eta[0])
            if c < 0:
                return None
            num, den = math.isqrt(c.numerator), math.isqrt(c.denominator)
            if num * num != c.numerator or den * den != c.denominator:
                return None
            return [Fraction(num, den)]
        a, b, m, norm = self._split(eta)
        n = self.sqrt(norm)
        if n is None:
            return None
        for n in (n, [-c for c in n]):
            x = self.sqrt([Fraction(c + d, 2) for c, d in zip(a, n)])
            if x is None:
                continue
            y = self.sqrt([Fraction(c - d, 2 * m) for c, d in zip(a, n)])
            if y is None:
                continue
            xy2 = [2 * c for c in self.mul(x, y)]
            if xy2 == b:
                return x + y
            if xy2 == [-c for c in b]:
                return x + [-c for c in y]
        return None

    def sign(self, u) -> int:
        """Sign of u in the real embedding where every sqrt(m_i) is positive."""
        if len(u) == 1:
            return (u[0] > 0) - (u[0] < 0)
        a, b, _, norm = self._split(u)
        sa, sb = self.sign(a), self.sign(b)
        if sa * sb >= 0:
            return sa or sb
        # a and b sqrt(m) differ in sign: the larger in absolute value wins
        return sa if self.sign(norm) > 0 else sb


def kubota_index(m1: int, m2: int, m3: int | None = None,
                 max_steps: int = DEFAULT_CF_STEPS) -> int:
    """Unit index q(K/Q) = (E_K : <subfield fundamental units, -1>).

    K = Q(sqrt(m1), sqrt(m2)[, sqrt(m3)]) must be totally real.  Saturates
    the lattice spanned by the subfield fundamental units at 2: whenever a
    product eta of basis elements has a square root in K (found exactly by
    _MultiQuadField.sqrt), the root replaces a basis element and doubles
    the index.  Every basis element is kept positive in one embedding, so
    -eta, negative there, never needs testing.  Iterating until no product
    is a square catches units that are fourth roots of unit products, which
    occur from degree 8 on.  E_K modulo the lattice is a 2-group, so the
    lattice that no square root extends is E_K itself and q is exact.
    """
    gens = [squarefree_kernel(m) for m in (m1, m2, m3) if m is not None]
    if any(m <= 1 for m in gens):
        raise ValueError(f"radicands {gens} do not span a totally real field")
    field = _MultiQuadField(gens)
    basis = []
    for mask, w in enumerate(field.w[1:], start=1):
        # (x + y' sqrt(m))/2 with sqrt(m) = sqrt(m_mask)/g, g^2 = w/m
        u = unit_of_radicand(squarefree_kernel(w), max_steps)
        x, ym = u.coords_over_radicand()
        elem = [0] * len(field.w)
        elem[0] = Fraction(x, 2)
        elem[mask] = Fraction(ym, 2 * math.isqrt(w // u.m))
        basis.append(elem)
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
            return q
        # eta is no square of a lattice element (exponents are 0/1), so
        # swapping the root in genuinely doubles the lattice
        basis[top] = xi if field.sign(xi) > 0 else [-c for c in xi]
        q *= 2


def multiquadratic_h2(subfield_h2: Sequence[int], q: int, degree: int) -> int:
    """2-class number of a real multiquadratic field of degree 4 or 8.

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
