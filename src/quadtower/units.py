"""Fundamental units, the delta invariant, square-root decompositions.

The fundamental unit of a real quadratic order is read off the continued
fraction of the standard generator.  For norm +1 units, Hilbert 90 gives
sqrt(eps) = (1 + eps)/sqrt(N(1 + eps)), so eps has a square root of the shape
(a sqrt(m1) + b sqrt(m2))/2 with m1 the squarefree kernel delta of N(1+eps);
the associated sign (a^2 m1 - b^2 m2)/4 = +-1 reproduces the classical
Legendre-symbol identities.  Unit indices q(K/Q) of real multiquadratic
fields are computed by testing which products of subfield fundamental units
acquire square roots in K.
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
    """Q(sqrt(m) : m in gens) for multiplicatively independent radicands > 1.

    Elements are dicts mapping a frozenset S of generator indices to the
    rational coefficient of sqrt(m_S), m_S = squarefree kernel of the
    product over S.
    """

    def __init__(self, gens: Sequence[int]):
        self.gens = tuple(gens)
        self.r = len(gens)
        self.subsets = []
        self.rad = {}
        for mask in range(2**self.r):
            s = frozenset(i for i in range(self.r) if mask >> i & 1)
            prod = 1
            for i in s:
                prod *= gens[i]
            self.subsets.append(s)
            self.rad[s] = squarefree_kernel(prod)
        if len(set(self.rad.values())) != 2**self.r:
            raise ValueError(f"radicands {gens} are not independent")

    def one(self):
        return {frozenset(): Fraction(1)}

    def mul(self, u, v):
        out = {}
        for s, cu in u.items():
            for t, cv in v.items():
                st = s ^ t
                # sqrt(m_s) sqrt(m_t) = g sqrt(m_st) with g^2 the square part
                g = math.isqrt(self.rad[s] * self.rad[t] // self.rad[st])
                c = cu * cv * g
                if c:
                    out[st] = out.get(st, Fraction(0)) + c
        return {s: c for s, c in out.items() if c}

    def embed_unit(self, u: QuadUnit):
        """A quadratic unit as a field element; its radicand must occur."""
        x, ym = u.coords_over_radicand()
        for s, m in self.rad.items():
            if m == u.m:
                return {frozenset(): Fraction(x, 2), s: Fraction(ym, 2)}
        raise ValueError(f"radicand {u.m} not a subfield radicand")

    def conjugates_fixed(self, elem, bits: int) -> list[int]:
        """Fixed-point (value << bits) of elem under all 2^r embeddings."""
        roots = {s: math.isqrt(m << (2 * bits)) for s, m in self.rad.items()}
        vals = []
        for tau in range(2**self.r):
            acc = 0
            for s, c in elem.items():
                sign = 1
                for i in s:
                    if tau >> i & 1:
                        sign = -sign
                acc += sign * (c.numerator * roots[s]) // c.denominator
            vals.append(acc)
        return vals

    def square_equals(self, elem, target) -> bool:
        return self.mul(elem, elem) == target


def _sqrt_member(field: _MultiQuadField, eta):
    """The positive square root of eta if it lies in the field, else None.

    Guesses the conjugate-sign pattern of the root, reconstructs each trace
    coordinate from fixed-point conjugates, and accepts only after an exact
    verification, so numeric error can cause a miss but never a false root.
    """
    r = field.r
    n_emb = 2**r
    size = max(
        abs(c.numerator).bit_length() + c.denominator.bit_length()
        for c in eta.values()
    )
    bits = 2 * size + 256
    conj = field.conjugates_fixed(eta, bits)
    margin = 1 << max(bits - 8, 1)
    if any(v < -margin for v in conj):
        return None  # a negative conjugate: no square root in a real field
    roots = [math.isqrt(max(v, 0) << bits) for v in conj]  # sqrt * 2^bits
    rad_fixed = {s: math.isqrt(m << (2 * bits)) for s, m in field.rad.items()}
    chi = [
        [(-1) ** bin(tau & smask).count("1") for tau in range(n_emb)]
        for smask in range(n_emb)
    ]
    for pattern in range(2 ** (n_emb - 1)):
        signs = [1] + [(-1) ** (pattern >> i & 1) for i in range(n_emb - 1)]
        coords = {}
        ok = True
        for smask in range(n_emb):
            s = field.subsets[smask]
            acc = 0
            for tau in range(n_emb):
                acc += chi[smask][tau] * signs[tau] * roots[tau]
            # n = Tr(xi * sqrt(m_s)) must be a rational integer
            n_fixed = acc * rad_fixed[s] >> bits
            n_round = (n_fixed + (1 << (bits - 1))) >> bits
            err = abs(n_fixed - (n_round << bits))
            if err > (1 << bits) // 3:
                ok = False
                break
            coords[s] = Fraction(n_round, n_emb * field.rad[s])
        if not ok:
            continue
        xi = {s: c for s, c in coords.items() if c}
        if xi and field.square_equals(xi, eta):
            return xi
    return None


def _subfield_units(field: _MultiQuadField, max_steps: int) -> list[QuadUnit]:
    """Fundamental units of the quadratic subfields, in subset order."""
    return [unit_of_radicand(field.rad[s], max_steps) for s in field.subsets if s]


def kubota_index(m1: int, m2: int, m3: int | None = None,
                 max_steps: int = DEFAULT_CF_STEPS) -> int:
    """Unit index q(K/Q) = (E_K : <subfield fundamental units, -1>).

    K = Q(sqrt(m1), sqrt(m2)[, sqrt(m3)]) must be totally real.  Saturates
    the lattice spanned by the subfield fundamental units at 2: whenever a
    product of current basis elements has a square root in K, that root
    replaces a basis element and doubles the index.  Iterating catches units
    that are fourth roots of unit products, which occur from degree 8 on.
    """
    gens = [squarefree_kernel(m) for m in (m1, m2, m3) if m is not None]
    if any(m <= 1 for m in gens):
        raise ValueError(f"radicands {gens} do not span a totally real field")
    field = _MultiQuadField(gens)
    basis = [field.embed_unit(u) for u in _subfield_units(field, max_steps)]
    q = 1
    improved = True
    while improved:
        improved = False
        for mask in range(1, 2 ** len(basis)):
            eta = field.one()
            for i in range(len(basis)):
                if mask >> i & 1:
                    eta = field.mul(eta, basis[i])
            xi = _sqrt_member(field, eta)
            if xi is not None:
                # eta is no square of a lattice element (exponents are 0/1),
                # so swapping the root in genuinely doubles the lattice
                basis[mask.bit_length() - 1] = xi
                q *= 2
                improved = True
                break
    return q


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
