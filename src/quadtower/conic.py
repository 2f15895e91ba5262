"""Rational points on conics a^2 = b^2 d1 + c^2 d2 and quaternionic elements.

A primitive integer solution of the diagonal conic gives a quadratic
irrationality a + c sqrt(d2) of norm b^2 d1; for the splittings of
`qform.c4_splittings` that is the element alpha whose square root
generates a cyclic quartic extension, and the tests check that every such
conic is solvable.  The module also builds multiquadratic elements
beta = x1 sqrt(d1) + x2 sqrt(d2) of prescribed norm -d3 d4 x3^2.  Every
identity here is checked exactly in integers; there is no tolerance
anywhere.

The solver is a bounded search over (b, c) with a perfect-square test on
b^2 d1 + c^2 d2.  Before searching it rules out locally insoluble inputs
(sign obstruction, an odd prime dividing one coefficient to odd order over
which the other is a non-residue, and a 2-adic check mod 8), so the
bound-exceeded error is reserved for genuinely undecided inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import (
    BoundExceededError,
    factor_discriminant,
    factorize,
    is_prime_discriminant,
    is_square,
    kronecker,
    prime_of,
    radicand,
)
from .units import QuadUnit, fundamental_unit

__all__ = [
    "ConicSolution",
    "MuElement",
    "ProvablyInsolubleError",
    "NoSolutionWithinBoundError",
    "H8HypothesisError",
    "solve_conic",
    "solve_h8",
    "h8_symbols",
    "DEFAULT_CONIC_BOUND",
]

DEFAULT_CONIC_BOUND = 10**4


class ProvablyInsolubleError(ValueError):
    """The conic has no rational point at all (local obstruction)."""


class NoSolutionWithinBoundError(BoundExceededError):
    """No primitive solution was found below the search bound."""

    def __init__(self, equation: str, bound: int):
        self.equation = equation
        self.bound = bound
        super().__init__(f"no primitive solution of {equation} within bound {bound}")


class H8HypothesisError(ValueError):
    """The quaternion-embedding hypotheses fail for the given triple."""


@dataclass(frozen=True)
class ConicSolution:
    """Primitive solution (a, b, c) of a^2 = b^2 delta1 + c^2 delta2."""

    a: int
    b: int
    c: int
    form_params: tuple[int, int]

    def __post_init__(self):
        d1, d2 = self.form_params
        if self.a * self.a != self.b * self.b * d1 + self.c * self.c * d2:
            raise ValueError(
                f"({self.a})^2 != ({self.b})^2*({d1}) + ({self.c})^2*({d2})"
            )
        if math.gcd(self.a, self.b, self.c) != 1:
            raise ValueError("solution is not primitive")


@dataclass(frozen=True)
class MuElement:
    """beta = x1 sqrt(d1) + x2 sqrt(d2) with N(beta) = -d3 d4 x3^2.

    u2 is the auxiliary norm -1 unit of Q(sqrt(d2)) used to adjust beta so
    that beta u2 has square norm; it is stored with the element because the
    embedding argument consumes the pair.
    """

    x1: int
    x2: int
    x3: int
    u2: QuadUnit
    form_params: tuple[int, int, int]

    def __post_init__(self):
        d1, d2, d3d4 = self.form_params
        lhs = self.x1 * self.x1 * d1 - self.x2 * self.x2 * d2
        if lhs != -d3d4 * self.x3 * self.x3:
            raise ValueError(f"x1^2 d1 - x2^2 d2 = {lhs} != -(d3 d4) x3^2")
        if math.gcd(self.x1, self.x2) != 1:
            raise ValueError("beta is not primitive: gcd(x1, x2) > 1")
        if self.u2.norm != -1:
            raise ValueError("u2 must have norm -1")
        if self.u2.m != radicand(d2):
            raise ValueError("u2 lives in the wrong field")


def _local_obstruction(delta1: int, delta2: int) -> str | None:
    """Reason string if a^2 = b^2 delta1 + c^2 delta2 is insoluble, else None."""
    if delta1 < 0 and delta2 < 0:
        return "both coefficients negative: no real point"
    # odd prime p || delta1 (odd multiplicity), p coprime to delta2:
    # any solution forces delta2 to be a square mod p.
    for d, other in ((delta1, delta2), (delta2, delta1)):
        for p, e in factorize(abs(d)).items():
            if p == 2 or e % 2 == 0 or other % p == 0:
                continue
            if kronecker(other, p) == -1:
                return f"{other} is a non-residue modulo {p} | {d}"
    # 2-adic: enumerate a, b, c mod 8 over not-all-even triples
    for a in range(8):
        for b in range(8):
            for c in range(8):
                if a % 2 == 0 and b % 2 == 0 and c % 2 == 0:
                    continue
                if (a * a - b * b * delta1 - c * c * delta2) % 8 == 0:
                    return None
    return "no primitive solution modulo 8"


def solve_conic(
    delta1: int, delta2: int, bound: int = DEFAULT_CONIC_BOUND
) -> ConicSolution:
    """Primitive solution of a^2 = b^2 delta1 + c^2 delta2, minimal max(|b|,|c|).

    Raises ProvablyInsolubleError on a local obstruction and
    NoSolutionWithinBoundError when the search bound runs out.  Among
    solutions of the same height the scan order (c at the height first,
    then b) fixes a deterministic representative.
    """
    if delta1 == 0 or delta2 == 0:
        raise ValueError("coefficients must be nonzero")
    reason = _local_obstruction(delta1, delta2)
    if reason is not None:
        raise ProvablyInsolubleError(
            f"a^2 = b^2*({delta1}) + c^2*({delta2}) is insoluble: {reason}"
        )
    for m in range(1, bound + 1):
        # pairs with max(|b|, |c|) == m; b, c >= 0 suffices (signs square out)
        for b, c in [(b, m) for b in range(m + 1)] + [(m, c) for c in range(m)]:
            t = b * b * delta1 + c * c * delta2
            if t <= 0:
                continue
            a = math.isqrt(t)
            if a * a != t or math.gcd(a, b, c) != 1:
                continue
            return ConicSolution(a, b, c, (delta1, delta2))
    raise NoSolutionWithinBoundError(
        f"a^2 = b^2*({delta1}) + c^2*({delta2})", bound
    )


def _unit_cube(u: QuadUnit) -> QuadUnit:
    x, y, d = u.x, u.y, u.d
    num_x = x * (x * x + 3 * y * y * d)
    num_y = y * (3 * x * x + y * y * d)
    if num_x % 4 or num_y % 4:
        raise ValueError("cube does not keep half-integral coordinates")
    return QuadUnit(d, num_x // 4, num_y // 4, u.norm)


def h8_symbols(d1: int, d2: int, d3: int, d4: int) -> list[tuple[int, int]]:
    """(top, p) for the four quaternion-embedding symbols (top / p)."""
    return [
        (d1 * d2, prime_of(d3)),
        (d1 * d2, prime_of(d4)),
        (d2 * d3 * d4, prime_of(d1)),
        (d3 * d4 * d1, prime_of(d2)),
    ]


def solve_h8(
    d1: int, d2: int, d3d4: int, bound: int = DEFAULT_CONIC_BOUND
) -> MuElement:
    """Solve x1^2 d1 - x2^2 d2 = -(d3 d4) x3^2 under quaternion hypotheses.

    d1, d2 are positive prime discriminants and d3d4 the (positive) product
    of two negative ones; the four quaternion-embedding symbols
    (d1 d2 / p3) = (d1 d2 / p4) = (d2 d3 d4 / p1) = (d3 d4 d1 / p2) = 1
    must hold.  The fundamental unit of Q(sqrt(d2)) has norm -1, as for
    every positive prime discriminant (Legendre).  The stored u2 is that
    unit or its cube, whichever has integral coordinates over
    sqrt(radicand) (for d2 = 5 that is the cube 2 + sqrt(5)).
    """
    for d in (d1, d2):
        if not (d > 0 and is_prime_discriminant(d)):
            raise ValueError(f"{d} is not a positive prime discriminant")
    if d3d4 <= 0:
        raise ValueError("d3d4 must be the positive product of two negative factors")
    negative = factor_discriminant(d3d4)
    if len(negative) != 2 or any(d > 0 for d in negative):
        raise ValueError(f"{d3d4} is not a product of two negative prime discriminants")
    for top, p in h8_symbols(d1, d2, *negative):
        if kronecker(top, p) != 1:
            raise H8HypothesisError(
                f"embedding symbol ({top} / {p}) = {kronecker(top, p)} != 1"
            )
    u2 = fundamental_unit(d2)
    if u2.x % 2:
        u2 = _unit_cube(u2)  # (1 + sqrt(5))/2 -> 2 + sqrt(5)

    for x3 in range(1, bound + 1):
        # x2^2 d2 = x1^2 d1 + d3d4 x3^2 >= d3d4 x3^2
        x2 = math.isqrt(d3d4 * x3 * x3 // d2)
        while True:
            t = x2 * x2 * d2 - d3d4 * x3 * x3
            if t > bound * bound * d1:
                break
            if t > 0 and t % d1 == 0 and is_square(t // d1):
                x1 = math.isqrt(t // d1)
                if math.gcd(x1, x2) == 1:
                    return MuElement(x1, x2, x3, u2, (d1, d2, d3d4))
            x2 += 1
    raise NoSolutionWithinBoundError(
        f"x1^2*({d1}) - x2^2*({d2}) = -({d3d4})*x3^2", bound
    )
